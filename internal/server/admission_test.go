package server_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/client"
	"lsmlab/internal/core"
	"lsmlab/internal/events"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
)

// These tests cover the multi-tenant overload story end to end over
// the wire: token-bucket admission answering over-quota tenants with
// StatusThrottled + retry-after, scan clamping to the caller's
// namespace, and engine backpressure shed as tenant-scoped throttles
// instead of blocked connections.

func TestTenantQuotaThrottlesOverWire(t *testing.T) {
	ring := events.NewRing(4096)
	_, _, addr := testServer(t, nil, func(o *server.Options) {
		o.EventListener = ring
		o.Admission = admission.NewController(admission.Config{
			Tenants: map[string]admission.Quota{
				"acme": {OpsPerSec: 10, BurstSec: 0.5}, // 5-op burst, slow refill
			},
		})
	})
	// MaxRetries -1 disables retries so every throttle surfaces.
	cl, err := client.Dial(addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Hammer tenant acme far past its burst; the tail must throttle.
	var throttled int
	var lastThrottle *client.ThrottledError
	for i := 0; i < 40; i++ {
		err := cl.Put([]byte(fmt.Sprintf("acme/k%03d", i)), []byte("v"))
		if errors.Is(err, client.ErrThrottled) {
			throttled++
			errors.As(err, &lastThrottle)
		} else if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if throttled == 0 {
		t.Fatal("40 rapid writes against a 5-op burst never throttled")
	}
	if lastThrottle == nil || lastThrottle.RetryAfter <= 0 {
		t.Fatalf("throttled response carried no retry-after hint: %+v", lastThrottle)
	}
	if cl.Throttles() != int64(throttled) {
		t.Fatalf("client throttle count %d != observed %d", cl.Throttles(), throttled)
	}

	// An unquota'd tenant is untouched by acme's rejections.
	for i := 0; i < 40; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("globex/k%03d", i)), []byte("v")); err != nil {
			t.Fatalf("unthrottled tenant's put %d failed: %v", i, err)
		}
	}

	// Once acme's bucket refills, its writes are re-admitted — and the
	// re-admission closes the throttle episode.
	waitFor(t, "acme re-admission after refill", func() bool {
		return cl.Put([]byte("acme/after"), []byte("v")) == nil
	})
	var begins, ends int
	for _, e := range ring.Events() {
		switch e.Type {
		case events.ThrottleBegin:
			begins++
			if e.Reason != "acme" {
				t.Errorf("throttle episode for tenant %q, want acme", e.Reason)
			}
		case events.ThrottleEnd:
			ends++
			if e.DurationNs <= 0 {
				t.Errorf("throttle end without episode duration: %+v", e)
			}
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("throttle episodes unpaired: begins=%d ends=%d", begins, ends)
	}

	// Per-tenant accounting reaches the STATS verb.
	stats, err := cl.Stats(false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "tenant acme:") || !strings.Contains(stats, "tenant globex:") {
		t.Fatalf("stats missing tenant rows:\n%s", stats)
	}
	if !strings.Contains(stats, "throttled=") {
		t.Fatalf("stats missing throttle counters:\n%s", stats)
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	_, _, addr := testServer(t, nil, func(o *server.Options) {
		o.Admission = admission.NewController(admission.Config{
			Tenants: map[string]admission.Quota{
				"acme": {OpsPerSec: 100, BurstSec: 0.1}, // 10-op burst, fast refill
			},
		})
	})
	cl, err := client.Dial(addr, client.Options{MaxRetries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Well past the burst: every op eventually lands because the client
	// sleeps out the retry-after hints instead of failing.
	for i := 0; i < 50; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("acme/k%03d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d not absorbed by retry-after backoff: %v", i, err)
		}
	}
	if cl.Throttles() == 0 {
		t.Fatal("50 rapid writes against a 10-op burst saw no throttles at all")
	}
}

func TestTenantReadAndScanQuota(t *testing.T) {
	srv, db, addr := testServer(t, nil, func(o *server.Options) {
		o.Admission = admission.NewController(admission.Config{
			Tenants: map[string]admission.Quota{
				"acme": {OpsPerSec: 4, BurstSec: 0.5},
			},
		})
	})
	if err := db.Put([]byte("acme/k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var throttled int
	for i := 0; i < 20; i++ {
		_, err := cl.Get([]byte("acme/k"))
		if errors.Is(err, client.ErrThrottled) {
			throttled++
		} else if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		_, err := cl.Scan([]byte("acme/"), 10)
		if errors.Is(err, client.ErrThrottled) {
			throttled++
		} else if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
	}
	if throttled == 0 {
		t.Fatal("reads against a 2-op burst never throttled")
	}
	if got := srv.Admission().Throttled("acme"); got != int64(throttled) {
		t.Fatalf("controller counted %d throttles, client saw %d", got, throttled)
	}
	if srv.Metrics().NetThrottled != int64(throttled) {
		t.Fatalf("NetThrottled=%d, want %d", srv.Metrics().NetThrottled, throttled)
	}
}

func TestScanClampedToTenantNamespace(t *testing.T) {
	_, db, addr := testServer(t, nil, nil)
	for _, kv := range [][2]string{
		{"acme/1", "a1"}, {"acme/2", "a2"},
		{"acmezz", "plain-acmezz"}, // default tenant, sorts between acme/ and globex/
		{"globex/1", "g1"},
		{"plain", "p"},
		{"/rooted", "r"}, // empty prefix → default tenant
	} {
		if err := db.Put([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := func(kvs []client.KV) []string {
		out := make([]string, len(kvs))
		for i, kv := range kvs {
			out[i] = string(kv.Key)
		}
		return out
	}

	// A full-range scan is the default tenant's view: every key with a
	// separator belongs to someone else and is clamped away.
	kvs, err := cl.Scan(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(kvs); !equalStrings(got, []string{"/rooted", "acmezz", "plain"}) {
		t.Fatalf("default-tenant scan = %v", got)
	}

	// A scan inside one namespace sees exactly that namespace.
	kvs, err = cl.Scan([]byte("acme/"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(kvs); !equalStrings(got, []string{"acme/1", "acme/2"}) {
		t.Fatalf("acme scan = %v", got)
	}

	// A partial prefix that spans a tenant boundary ("acme" matches both
	// acme/'s namespace and the default tenant's "acmezz") resolves to
	// the prefix's own tenant — here the default tenant, since "acme"
	// has no separator.
	kvs, err = cl.Scan([]byte("acme"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(kvs); !equalStrings(got, []string{"acmezz"}) {
		t.Fatalf("boundary-spanning scan = %v", got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stallFS delays table-file creation so flushes cannot keep up with a
// hammering writer, forcing the engine into write stalls.
type stallFS struct {
	vfs.FS
	delay time.Duration
}

func (f stallFS) Create(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".sst") {
		time.Sleep(f.delay)
	}
	return f.FS.Create(name)
}

func TestBackpressureShedsAsThrottle(t *testing.T) {
	srv, db, addr := testServer(t, func(o *core.Options) {
		o.FS = stallFS{FS: vfs.NewMem(), delay: 30 * time.Millisecond}
		o.BufferBytes = 1 << 10
		o.MaxImmutableBuffers = 1
		o.StallTimeout = 5 * time.Millisecond
	}, nil)
	cl, err := client.Dial(addr, client.Options{MaxRetries: -1, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Hammer writes from a few goroutines until the stall timeout sheds
	// some of them as throttles.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var shed int
	var firstHint time.Duration
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]byte, 256)
			for i := 0; i < 60; i++ {
				err := cl.Put([]byte(fmt.Sprintf("acme/w%d-%04d", w, i)), val)
				var te *client.ThrottledError
				switch {
				case errors.As(err, &te):
					mu.Lock()
					shed++
					if firstHint == 0 {
						firstHint = te.RetryAfter
					}
					mu.Unlock()
				case err != nil:
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if shed == 0 {
		t.Fatal("stalled engine never shed a write as StatusThrottled")
	}
	if firstHint <= 0 {
		t.Fatal("shed write carried no retry-after hint")
	}
	// Backpressure is shed, not sticky: the engine stays healthy and the
	// tenant is re-admitted once the flush backlog drains.
	if db.Health().Degraded {
		t.Fatal("backpressure degraded the engine")
	}
	waitFor(t, "writes recover after backlog drains", func() bool {
		return cl.Put([]byte("acme/recovered"), []byte("v")) == nil
	})
	if srv.Metrics().NetThrottled == 0 {
		t.Fatal("NetThrottled did not count shed writes")
	}
	if srv.Admission().Throttled("acme") == 0 {
		t.Fatal("shed writes not attributed to their tenant")
	}
	if db.Metrics().StallAborts == 0 {
		t.Fatal("engine counted no stall aborts")
	}
}
