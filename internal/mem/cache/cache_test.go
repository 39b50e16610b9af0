package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func l1() *Cache { return New(Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}) }
func l2() *Cache { return New(Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8}) }

func TestConfigGeometry(t *testing.T) {
	if s := l1().Config().Sets(); s != 128 {
		t.Errorf("L1 sets = %d, want 128", s)
	}
	if s := l2().Config().Sets(); s != 128 {
		t.Errorf("L2 sets = %d, want 128", s)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 0, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 0},
		{SizeBytes: 16<<10 + 64, LineBytes: 64, Ways: 2},
		{SizeBytes: 24 << 10, LineBytes: 64, Ways: 2}, // 192 sets, not pow2
		{SizeBytes: 16 << 10, LineBytes: 48, Ways: 2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
	good := Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v", good, err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := l1()
	if _, hit := c.Lookup(0x1000); hit {
		t.Fatal("cold cache reported a hit")
	}
	c.Insert(0x1000, Shared)
	st, hit := c.Lookup(0x1000)
	if !hit || st != Shared {
		t.Fatalf("after insert: state=%v hit=%v", st, hit)
	}
	// Same line, different offset.
	if _, hit := c.Lookup(0x103F); !hit {
		t.Fatal("offset within same line missed")
	}
	if _, hit := c.Lookup(0x1040); hit {
		t.Fatal("adjacent line hit spuriously")
	}
}

func TestLRUEviction(t *testing.T) {
	c := l1() // 2-way, 128 sets, 64B lines: addresses 64*128 apart collide
	stride := uint64(64 * 128)
	a, b, d := uint64(0x0), stride, 2*stride
	c.Insert(a, Shared)
	c.Insert(b, Shared)
	c.Lookup(a) // touch a, making b LRU
	v, evicted := c.Insert(d, Shared)
	if !evicted {
		t.Fatal("third insert into 2-way set did not evict")
	}
	if v.Addr != b {
		t.Fatalf("evicted %#x, want LRU line %#x", v.Addr, b)
	}
	if _, hit := c.Peek(a); !hit {
		t.Fatal("recently used line was evicted")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := l1()
	stride := uint64(64 * 128)
	c.Insert(0, Modified)
	c.Insert(stride, Shared)
	v, evicted := c.Insert(2*stride, Shared)
	if !evicted || !v.Dirty {
		t.Fatalf("evicting Modified line: evicted=%v dirty=%v", evicted, v.Dirty)
	}
	_, _, _, wb := c.Stats()
	if wb != 1 {
		t.Fatalf("writebacks = %d, want 1", wb)
	}
}

func TestInsertExistingUpdatesState(t *testing.T) {
	c := l1()
	c.Insert(0x40, Shared)
	if _, evicted := c.Insert(0x40, Modified); evicted {
		t.Fatal("re-insert of present line evicted something")
	}
	st, _ := c.Peek(0x40)
	if st != Modified {
		t.Fatalf("state after upgrade-insert = %v, want M", st)
	}
	if c.ValidCount() != 1 {
		t.Fatalf("valid lines = %d, want 1", c.ValidCount())
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := l1()
	if c.SetState(0x80, Shared) {
		t.Fatal("SetState on absent line reported true")
	}
	c.Insert(0x80, Exclusive)
	if !c.SetState(0x80, Modified) {
		t.Fatal("SetState on present line reported false")
	}
	dirty, present := c.Invalidate(0x80)
	if !present || !dirty {
		t.Fatalf("Invalidate: present=%v dirty=%v, want true,true", present, dirty)
	}
	if _, present = c.Invalidate(0x80); present {
		t.Fatal("second Invalidate found the line")
	}
}

func TestFlushDirty(t *testing.T) {
	c := l2()
	c.Insert(0x000, Modified)
	c.Insert(0x040, Shared)
	c.Insert(0x080, Exclusive)
	c.Insert(0x0C0, Modified)
	flushed := c.FlushDirty(nil)
	if len(flushed) != 2 {
		t.Fatalf("flushed %d lines, want 2", len(flushed))
	}
	if c.DirtyCount() != 0 {
		t.Fatal("dirty lines remain after flush")
	}
	// Dirty lines are invalidated (compulsory miss later); clean survive.
	if _, hit := c.Peek(0x000); hit {
		t.Fatal("flushed dirty line still present")
	}
	if _, hit := c.Peek(0x040); !hit {
		t.Fatal("clean line was dropped by flush")
	}
	if _, hit := c.Peek(0x080); !hit {
		t.Fatal("exclusive clean line was dropped by flush")
	}
}

func TestLineAddr(t *testing.T) {
	c := l1()
	if got := c.LineAddr(0x12345); got != 0x12340 {
		t.Fatalf("LineAddr(0x12345) = %#x, want 0x12340", got)
	}
}

func TestLineStateHelpers(t *testing.T) {
	if !Modified.Dirty() || Shared.Dirty() || Exclusive.Dirty() || Invalid.Dirty() {
		t.Error("Dirty() wrong for some state")
	}
	if Invalid.Valid() || !Shared.Valid() {
		t.Error("Valid() wrong for some state")
	}
	if Modified.String() != "M" || Invalid.String() != "I" {
		t.Error("String() wrong")
	}
}

func TestClear(t *testing.T) {
	c := l1()
	c.Insert(0x40, Modified)
	c.Clear()
	if c.ValidCount() != 0 {
		t.Fatal("Clear left valid lines")
	}
}

// Property: the cache never holds more valid lines than its capacity, and
// Lookup after Insert always hits, under arbitrary insert sequences.
func TestCapacityInvariantProperty(t *testing.T) {
	capacity := (16 << 10) / 64
	f := func(addrs []uint32) bool {
		c := l1()
		for _, a := range addrs {
			addr := uint64(a) << 6
			c.Insert(addr, Shared)
			if _, hit := c.Peek(addr); !hit {
				return false
			}
		}
		return c.ValidCount() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every dirty line inserted is eventually accounted for as either
// still-dirty, written back on eviction, or flushed.
func TestWritebackConservationProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := l1()
		inserted := 0
		for _, a := range addrs {
			addr := uint64(a) << 6
			if st, ok := c.Peek(addr); ok && st == Modified {
				continue // already dirty; not a new dirty insertion
			}
			c.Insert(addr, Modified)
			inserted++
		}
		flushed := len(c.FlushDirty(nil))
		_, _, _, wb := c.Stats()
		// writebacks counts evictions of dirty lines plus flushes.
		return int(wb) == inserted && flushed+int(wb)-flushed <= inserted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// scanDirty counts dirty lines by a full scan.
func scanDirty(c *Cache) int {
	n := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].state.Dirty() {
				n++
			}
		}
	}
	return n
}

// Property: the incremental dirty count equals a full scan after every
// step of a random sequence of every state-changing operation. The cache
// is small (4 sets × 2 ways) and the address range wide enough to force
// evictions of dirty and clean victims alike.
func TestDirtyCountMatchesScanProperty(t *testing.T) {
	allStates := []LineState{Invalid, Shared, Exclusive, Modified}
	states := allStates[1:]
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{SizeBytes: 512, LineBytes: 64, Ways: 2})
		var buf []uint64
		for step := 0; step < 400; step++ {
			addr := uint64(rng.Intn(32)) << 6
			op := rng.Intn(20)
			switch {
			case op < 10:
				c.Insert(addr, states[rng.Intn(len(states))])
			case op < 14:
				c.SetState(addr, allStates[rng.Intn(len(allStates))])
			case op < 17:
				c.Invalidate(addr)
			case op < 19:
				want := scanDirty(c)
				buf = c.FlushDirty(buf[:0])
				if len(buf) != want {
					t.Fatalf("seed %d step %d: FlushDirty returned %d lines, scan found %d dirty", seed, step, len(buf), want)
				}
			default:
				c.Clear()
			}
			if got, want := c.DirtyCount(), scanDirty(c); got != want {
				t.Fatalf("seed %d step %d (op %d): DirtyCount = %d, full scan = %d", seed, step, op, got, want)
			}
		}
	}
}

func TestFlushDirtyAppendsInSetWayOrder(t *testing.T) {
	c := l2() // 128 sets: line k sits in set k%128
	c.Insert(0x0C0, Modified)
	c.Insert(0x040, Modified)
	c.Insert(0x080, Shared)
	c.Insert(0x040+128*64, Modified) // set 1, second way
	got := c.FlushDirty([]uint64{0xDEAD})
	want := []uint64{0xDEAD, 0x040, 0x040 + 128*64, 0x0C0}
	if len(got) != len(want) {
		t.Fatalf("FlushDirty = %#x, want %#x", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FlushDirty = %#x, want %#x", got, want)
		}
	}
}

func TestAppendLines(t *testing.T) {
	c := l2()
	c.Insert(0x0C0, Exclusive)
	c.Insert(0x040, Exclusive)
	c.Insert(0x080, Shared)
	c.Insert(0x100, Modified)
	got := c.AppendLines(nil, Exclusive)
	if len(got) != 2 || got[0] != 0x040 || got[1] != 0x0C0 {
		t.Fatalf("AppendLines(Exclusive) = %#x, want [0x40 0xc0]", got)
	}
	if st, _ := c.Peek(0x040); st != Exclusive {
		t.Fatalf("AppendLines changed a state: %v", st)
	}
}
