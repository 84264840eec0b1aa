package replica

import (
	"bytes"
	"testing"
)

// FuzzParseRepairReq: a repair request is the one replication payload
// the leader decodes from a follower, opaque to the server in between.
// Whatever it is sent, the decoder must not panic, must bound the shard
// and every range it accepts, and what it accepts must re-encode to a
// request that decodes to the same thing.
func FuzzParseRepairReq(f *testing.F) {
	f.Add(AppendRepairReq(nil, 1, []int{0, 3}, []byte("k7")), uint8(2), uint8(4))
	f.Add(AppendRepairReq(nil, 0, nil, nil), uint8(1), uint8(1))
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, uint8(1), uint8(16))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, numShards, numRanges uint8) {
		shard, want, resume, err := parseRepairReq(data, int(numShards), int(numRanges))
		if err != nil {
			return
		}
		if shard < 0 || shard >= int(numShards) || len(want) != int(numRanges) {
			t.Fatalf("accepted shard %d of %d with %d range flags, want %d", shard, numShards, len(want), numRanges)
		}
		var ranges []int
		for r, ok := range want {
			if ok {
				ranges = append(ranges, r)
			}
		}
		shard2, want2, resume2, err := parseRepairReq(AppendRepairReq(nil, shard, ranges, resume), int(numShards), int(numRanges))
		if err != nil || shard2 != shard || !bytes.Equal(resume2, resume) {
			t.Fatalf("round trip: shard %d→%d resume %q→%q err %v", shard, shard2, resume, resume2, err)
		}
		for r := range want {
			if want[r] != want2[r] {
				t.Fatalf("round trip: range %d %v→%v", r, want[r], want2[r])
			}
		}
	})
}

// FuzzParseRepairPage: the follower decodes a repair page from the
// leader. No input may panic it, every key must come with a value, and
// an accepted page must re-encode to one that decodes identically.
func FuzzParseRepairPage(f *testing.F) {
	f.Add(appendRepairPage(nil, &RepairPage{Watermark: 9, More: true,
		Keys: [][]byte{[]byte("a"), []byte("b")}, Values: [][]byte{[]byte("1"), nil}}))
	f.Add(appendRepairPage(nil, &RepairPage{}))
	f.Add([]byte{1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pg, err := ParseRepairPage(data)
		if err != nil {
			return
		}
		if len(pg.Keys) != len(pg.Values) {
			t.Fatalf("%d keys, %d values", len(pg.Keys), len(pg.Values))
		}
		again, err := ParseRepairPage(appendRepairPage(nil, pg))
		if err != nil || again.Watermark != pg.Watermark || again.More != pg.More || len(again.Keys) != len(pg.Keys) {
			t.Fatalf("round trip: %+v → %+v, %v", pg, again, err)
		}
		for i := range pg.Keys {
			if !bytes.Equal(again.Keys[i], pg.Keys[i]) || !bytes.Equal(again.Values[i], pg.Values[i]) {
				t.Fatalf("round trip: entry %d differs", i)
			}
		}
	})
}
