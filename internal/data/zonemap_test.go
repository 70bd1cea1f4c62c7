package data

import (
	"math"
	"testing"
)

// TestZoneMapIntBounds checks per-block min/max over a multi-block Int
// column with a ragged tail block.
func TestZoneMapIntBounds(t *testing.T) {
	n := 2*ZoneBlockSize + 100
	c := &Column{Name: "k", Kind: Int}
	for i := 0; i < n; i++ {
		c.Ints = append(c.Ints, int64(i))
	}
	zm := c.Zones()
	if zm.NumBlocks != ZoneBlocks(n) || zm.NumBlocks != 3 {
		t.Fatalf("NumBlocks = %d, want 3", zm.NumBlocks)
	}
	for b := 0; b < zm.NumBlocks; b++ {
		lo := int64(b * ZoneBlockSize)
		hi := lo + ZoneBlockSize - 1
		if b == zm.NumBlocks-1 {
			hi = int64(n - 1)
		}
		if zm.IntMin[b] != lo || zm.IntMax[b] != hi {
			t.Fatalf("block %d: [%d, %d], want [%d, %d]", b, zm.IntMin[b], zm.IntMax[b], lo, hi)
		}
	}
	if c.Zones() != zm {
		t.Fatal("second Zones call rebuilt the map instead of returning the cache")
	}
}

// TestZoneMapFloatNaN checks Float zone maps: NaN values are excluded
// from the bounds and an all-NaN block is flagged Empty.
func TestZoneMapFloatNaN(t *testing.T) {
	n := 2 * ZoneBlockSize
	c := &Column{Name: "f", Kind: Float}
	for i := 0; i < n; i++ {
		switch {
		case i/ZoneBlockSize == 1:
			c.Flts = append(c.Flts, math.NaN()) // whole second block NaN
		case i%7 == 0:
			c.Flts = append(c.Flts, math.NaN())
		default:
			c.Flts = append(c.Flts, float64(i%100))
		}
	}
	zm := c.Zones()
	if zm.Empty[0] {
		t.Fatal("block 0 flagged Empty despite comparable values")
	}
	if zm.FltMin[0] != 0 || zm.FltMax[0] != 99 {
		t.Fatalf("block 0 bounds [%v, %v], want [0, 99]", zm.FltMin[0], zm.FltMax[0])
	}
	if !zm.Empty[1] {
		t.Fatal("all-NaN block 1 not flagged Empty")
	}
}

// TestZoneMapEmptyColumn: a zero-row column yields a zero-block map.
func TestZoneMapEmptyColumn(t *testing.T) {
	for _, kind := range []Kind{Int, Float, String} {
		c := &Column{Name: "e", Kind: kind}
		if zm := c.Zones(); zm.NumBlocks != 0 {
			t.Fatalf("kind %v: empty column has %d blocks", kind, zm.NumBlocks)
		}
	}
}

// TestColumnCachesInvalidateOnAppend checks that Zones and MinMax are
// cached across calls and dropped by every Append* mutator, so
// post-mutation reads see the new data.
func TestColumnCachesInvalidateOnAppend(t *testing.T) {
	c := &Column{Name: "k", Kind: Int}
	for i := 0; i < 10; i++ {
		c.AppendInt(int64(i))
	}
	lo, hi, ok := c.MinMax()
	if !ok || lo != 0 || hi != 9 {
		t.Fatalf("MinMax = (%v, %v, %v), want (0, 9, true)", lo, hi, ok)
	}
	zm := c.Zones()
	if zm.IntMax[0] != 9 {
		t.Fatalf("zone max = %d, want 9", zm.IntMax[0])
	}

	c.AppendInt(100)
	if lo, hi, _ := c.MinMax(); lo != 0 || hi != 100 {
		t.Fatalf("post-append MinMax = (%v, %v), want (0, 100)", lo, hi)
	}
	if zm2 := c.Zones(); zm2 == zm || zm2.IntMax[0] != 100 {
		t.Fatalf("post-append Zones stale: max = %d, want 100", zm2.IntMax[0])
	}

	f := &Column{Name: "f", Kind: Float}
	f.AppendFloat(1.5)
	f.MinMax()
	f.AppendFloat(-3)
	if lo, _, _ := f.MinMax(); lo != -3 {
		t.Fatalf("float post-append MinMax lo = %v, want -3", lo)
	}

	s := &Column{Name: "s", Kind: String}
	s.AppendString("a")
	s.MinMax()
	s.AppendString("b")
	if _, hi, _ := s.MinMax(); hi != 1 {
		t.Fatalf("string post-append MinMax hi = %v, want 1", hi)
	}
}

// TestMinMaxEmpty pins ok=false (and a cached re-read) on empty columns.
func TestMinMaxEmpty(t *testing.T) {
	c := &Column{Name: "e", Kind: Int}
	if _, _, ok := c.MinMax(); ok {
		t.Fatal("empty column reported MinMax ok")
	}
	if _, _, ok := c.MinMax(); ok {
		t.Fatal("cached empty MinMax reported ok")
	}
}
