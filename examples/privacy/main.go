// Privacy: deletion compliance with Lethe-style timely persistent
// deletion (tutorial §2.3.3). Regulations like the GDPR require that
// deleted data be *physically* purged within a deadline; vanilla LSM
// tombstones only hide data logically, and the invalidated bytes can
// survive on disk indefinitely. With a tombstone-age threshold, the
// engine force-compacts files holding old tombstones so the deadline
// holds.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"lsmlab/internal/compaction"
	"lsmlab/internal/core"
	"lsmlab/internal/vfs"
)

func main() {
	// A virtual clock makes the deadline demonstration deterministic.
	var mu sync.Mutex
	clock := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	tick := func(d time.Duration) {
		mu.Lock()
		clock += int64(d)
		mu.Unlock()
	}

	run := func(threshold time.Duration) (left uint64) {
		fs := vfs.NewMem()
		opts := core.DefaultOptions(fs, "gdpr-db")
		opts.TombstoneAgeThreshold = threshold
		opts.NowNs = func() int64 { mu.Lock(); defer mu.Unlock(); return clock }
		// Keep the tree quiet otherwise, so nothing but the deadline
		// forces work — the worst case for tombstone persistence.
		opts.Layout = compaction.TieredFirst{K0: 64}
		opts.StallL0Runs = 0

		db, err := core.Open(opts)
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()

		// A user's records, then a GDPR erasure request.
		for i := 0; i < 1000; i++ {
			db.Put([]byte(fmt.Sprintf("user42/doc%04d", i)), []byte("personal data"))
		}
		db.Flush()
		for i := 0; i < 1000; i++ {
			db.SingleDelete([]byte(fmt.Sprintf("user42/doc%04d", i)))
		}
		db.Flush()

		// A week passes with no other activity.
		for day := 0; day < 7; day++ {
			tick(24 * time.Hour)
			db.WaitIdle()
		}

		// Count tombstones still on disk.
		for _, f := range db.Version().Files() {
			left += f.NumTombstones
		}
		return left
	}

	noDeadline := run(0)
	fmt.Printf("without a persistence deadline: %5d tombstones still on disk after 7 idle days\n", noDeadline)

	deadline := run(24 * time.Hour)
	fmt.Printf("with a 24h deadline (Lethe/FADE): %4d tombstones on disk after 7 idle days\n", deadline)

	if deadline == 0 && noDeadline > 0 {
		fmt.Println("\nthe deadline forced compactions that physically purged the deleted data;")
		fmt.Println("single-deletes annihilated with their inserts, leaving no residue (§2.3.3)")
	}
}
