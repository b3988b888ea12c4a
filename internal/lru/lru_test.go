package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicPutGet(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d %v", v, ok)
	}
	if _, ok := c.Get("zzz"); ok {
		t.Fatal("missing key found")
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // refresh a
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestUpdateExisting(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get("a"); v != 9 {
		t.Fatalf("updated value = %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New[string, int](0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-capacity cache stored a value")
	}
}

func TestStats(t *testing.T) {
	c := New[string, int](4)
	c.Put("a", 1)
	c.Get("a")
	c.Get("b")
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Put(i%100, i)
				c.Get((i + w) % 100)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

func TestManyEvictions(t *testing.T) {
	c := New[string, int](16)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 16 {
		t.Fatalf("Len = %d", c.Len())
	}
	// The 16 most recent keys must be present.
	for i := 984; i < 1000; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("recent key k%d evicted", i)
		}
	}
}
