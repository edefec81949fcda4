package serve

import (
	"fmt"
	"testing"
)

func bundle(n int, size int) *Bundles {
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("k%d", i), make([]byte, size)
	}
	return packBundles(keys, vals)
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(250, nil)
	k := func(i int) cacheKey { return cacheKey{digest: uint64(i + 1), schema: "q"} }
	c.Put(k(1), bundle(1, 98)) // 2+98 = 100 bytes
	c.Put(k(2), bundle(1, 98))
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("k1 should be resident")
	}
	// k1 is now MRU; inserting k3 must evict k2.
	c.Put(k(3), bundle(1, 98))
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("k2 should have been evicted as LRU")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("k1 (recently used) should survive")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 1 eviction / 2 entries", st)
	}
}

func TestCacheKeepsOneOversizedEntry(t *testing.T) {
	c := NewCache(10, nil)
	k := cacheKey{digest: 1, schema: "q"}
	c.Put(k, bundle(1, 100))
	if _, ok := c.Get(k); !ok {
		t.Fatal("a single entry must stay resident even over capacity")
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(1<<20, nil)
	for i := 0; i < 5; i++ {
		c.Put(cacheKey{digest: uint64(i + 1), schema: "q"}, bundle(2, 10))
	}
	held, _ := c.Get(cacheKey{digest: 1, schema: "q"})
	c.Flush()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 5 {
		t.Fatalf("post-flush stats %+v", st)
	}
	// Bundles handed out before the flush stay usable (immutability).
	if held.Len() != 2 {
		t.Fatal("flushed entry's bundles mutated")
	}
	if _, ok := c.Get(cacheKey{digest: 1, schema: "q"}); ok {
		t.Fatal("flushed entry still resident")
	}
}

// TestSchemaKeyIsolation pins that two schemas never share cache slots
// even for identical segment content.
func TestSchemaKeyIsolation(t *testing.T) {
	c := NewCache(1<<20, nil)
	c.Put(cacheKey{digest: 42, schema: "q1"}, bundle(1, 8))
	if _, ok := c.Get(cacheKey{digest: 42, schema: "q2"}); ok {
		t.Fatal("schema keys must not share entries")
	}
}

// TestBundlesPack pins the packed layout: groups come back in insertion
// order with their own bytes, copied out of the caller's buffers, and a
// bundle cannot be appended into its neighbour.
func TestBundlesPack(t *testing.T) {
	buf := []byte("aaabbbbc")
	b := packBundles([]string{"x", "y", "z"}, [][]byte{buf[:3], buf[3:7], buf[7:]})
	buf[0] = '!'
	want := []struct{ key, val string }{{"x", "aaa"}, {"y", "bbbb"}, {"z", "c"}}
	if b.Len() != len(want) || b.payload() != 3+8 {
		t.Fatalf("len %d payload %d, want %d and 11", b.Len(), b.payload(), len(want))
	}
	for i, w := range want {
		k, v := b.At(i)
		if k != w.key || string(v) != w.val || cap(v) != len(v) {
			t.Errorf("group %d: %q=%q (cap %d), want %q=%q", i, k, v, cap(v), w.key, w.val)
		}
	}
	if empty := packBundles(nil, nil); empty.Len() != 0 || empty.payload() != 0 {
		t.Errorf("empty set: len %d payload %d", empty.Len(), empty.payload())
	}
}
