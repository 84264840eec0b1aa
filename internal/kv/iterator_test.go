package kv

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func entriesOf(pairs ...string) []Entry {
	// pairs are "key@seq=value"
	var es []Entry
	for _, p := range pairs {
		var k, v string
		var seq int
		if _, err := fmt.Sscanf(p, "%1s@%d=%1s", &k, &seq, &v); err != nil {
			panic(err)
		}
		es = append(es, Entry{Key: MakeKey([]byte(k), SeqNum(seq), KindSet), Value: []byte(v)})
	}
	sort.Slice(es, func(i, j int) bool { return Compare(es[i].Key, es[j].Key) < 0 })
	return es
}

func collect(it Iterator) []string {
	var out []string
	for ok := it.First(); ok; ok = it.Next() {
		ukey, seq, _, _ := ParseKey(it.Key())
		out = append(out, fmt.Sprintf("%s@%d=%s", ukey, seq, it.Value()))
	}
	return out
}

func TestEmptyIterator(t *testing.T) {
	var it EmptyIterator
	if it.First() || it.SeekGE(nil) || it.Next() || it.Valid() {
		t.Error("empty iterator must never be valid")
	}
	if it.Key() != nil || it.Value() != nil || it.Close() != nil {
		t.Error("empty iterator accessors")
	}
}

func TestSliceIterator(t *testing.T) {
	es := entriesOf("a@1=1", "b@2=2", "c@3=3")
	it := NewSliceIterator(es)
	got := collect(it)
	want := []string{"a@1=1", "b@2=2", "c@3=3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if it.Close() != nil {
		t.Error("close")
	}
}

func TestSliceIteratorSeekGE(t *testing.T) {
	es := entriesOf("a@1=1", "c@3=3", "e@5=5")
	it := NewSliceIterator(es)
	if !it.SeekGE(MakeSearchKey([]byte("b"), MaxSeqNum)) {
		t.Fatal("seek b should land on c")
	}
	if string(UserKey(it.Key())) != "c" {
		t.Errorf("landed on %q", UserKey(it.Key()))
	}
	if it.SeekGE(MakeSearchKey([]byte("f"), MaxSeqNum)) {
		t.Error("seek past end must be invalid")
	}
	if !it.SeekGE(MakeSearchKey([]byte("a"), MaxSeqNum)) || string(UserKey(it.Key())) != "a" {
		t.Error("seek to first key")
	}
}

func TestSliceIteratorInvalidAfterEnd(t *testing.T) {
	it := NewSliceIterator(entriesOf("a@1=1"))
	it.First()
	if it.Next() {
		t.Error("next past end")
	}
	if it.Next() {
		t.Error("next stays invalid")
	}
}

func TestMergingIteratorInterleaves(t *testing.T) {
	a := NewSliceIterator(entriesOf("a@1=1", "d@4=4"))
	b := NewSliceIterator(entriesOf("b@2=2", "e@5=5"))
	c := NewSliceIterator(entriesOf("c@3=3"))
	m := NewMergingIterator(a, b, c)
	got := collect(m)
	want := []string{"a@1=1", "b@2=2", "c@3=3", "d@4=4", "e@5=5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMergingIteratorVersionsNewestFirst(t *testing.T) {
	// Same user key in two runs: the higher seq must come out first.
	newer := NewSliceIterator(entriesOf("k@9=n"))
	older := NewSliceIterator(entriesOf("k@3=o"))
	m := NewMergingIterator(older, newer) // order of sources must not matter
	got := collect(m)
	want := []string{"k@9=n", "k@3=o"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMergingIteratorSeekGE(t *testing.T) {
	a := NewSliceIterator(entriesOf("a@1=1", "c@3=3"))
	b := NewSliceIterator(entriesOf("b@2=2", "d@4=4"))
	m := NewMergingIterator(a, b)
	if !m.SeekGE(MakeSearchKey([]byte("c"), MaxSeqNum)) {
		t.Fatal("seek c")
	}
	var got []string
	for ; m.Valid(); m.Next() {
		got = append(got, string(UserKey(m.Key())))
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"c", "d"}) {
		t.Errorf("got %v", got)
	}
}

func TestMergingIteratorEmptySources(t *testing.T) {
	m := NewMergingIterator(EmptyIterator{}, NewSliceIterator(nil), nil)
	if m.First() {
		t.Error("all-empty merge must be invalid")
	}
	if m.Next() {
		t.Error("next on empty merge")
	}
	if m.Close() != nil {
		t.Error("close")
	}
}

func TestMergingIteratorRandomizedAgainstSort(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var all []Entry
		var iters []Iterator
		nRuns := 1 + r.Intn(5)
		seq := SeqNum(1)
		for i := 0; i < nRuns; i++ {
			var run []Entry
			n := r.Intn(30)
			for j := 0; j < n; j++ {
				k := []byte{byte('a' + r.Intn(20))}
				e := Entry{Key: MakeKey(k, seq, KindSet), Value: []byte{byte(seq)}}
				seq++
				run = append(run, e)
			}
			sort.Slice(run, func(x, y int) bool { return Compare(run[x].Key, run[y].Key) < 0 })
			all = append(all, run...)
			iters = append(iters, NewSliceIterator(run))
		}
		sort.Slice(all, func(x, y int) bool { return Compare(all[x].Key, all[y].Key) < 0 })
		m := NewMergingIterator(iters...)
		i := 0
		for ok := m.First(); ok; ok = m.Next() {
			if Compare(m.Key(), all[i].Key) != 0 {
				t.Fatalf("trial %d: position %d mismatch", trial, i)
			}
			i++
		}
		if i != len(all) {
			t.Fatalf("trial %d: merged %d entries, want %d", trial, i, len(all))
		}
	}
}

// failingIterator is an empty source that reports a deferred read
// error, as a table cursor does after a corrupt block.
type failingIterator struct{ EmptyIterator }

func (failingIterator) Error() error { return fmt.Errorf("bad block") }

// TestMergingIteratorResetClearsError reuses a merge that consumed an
// erroring source: Reset must clear the error and every old source.
func TestMergingIteratorResetClearsError(t *testing.T) {
	m := NewMergingIterator(NewSliceIterator(entriesOf("a@1=x", "c@1=y")), failingIterator{})
	if collect(m); m.Error() == nil {
		t.Fatal("erroring source not reported")
	}
	m.Reset([]Iterator{NewSliceIterator(entriesOf("b@2=z"))})
	if got := collect(m); fmt.Sprint(got) != "[b@2=z]" || m.Error() != nil {
		t.Errorf("after Reset: %v, error %v; want [b@2=z] and no error", got, m.Error())
	}
	if err := m.Close(); err != nil || m.First() {
		t.Errorf("after Close: error %v, First %v", err, m.Valid())
	}
}
