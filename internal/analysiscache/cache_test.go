package analysiscache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPutCounters(t *testing.T) {
	c := New(0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %t; want 1, true", v, ok)
	}
	c.Put("a", 2) // overwrite in place
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("overwrite lost: got %v", v)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Evictions != 0 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.HitRate(); got != 2.0/3.0 {
		t.Fatalf("hit rate = %f", got)
	}
	want := "hits=2 misses=1 evictions=0 entries=1 hit_rate=66.7%"
	if s.String() != want {
		t.Fatalf("String() = %q, want %q", s.String(), want)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // a is now most recently used
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("least-recently-used entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-used entry a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("fresh entry c was evicted")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPeekResidentCountsHitAndRefreshesLRU(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	v, ok := c.Peek("a") // a is now most recently used
	if !ok || v.(int) != 1 {
		t.Fatalf("Peek(a) = %v, %t; want 1, true", v, ok)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("stats after resident Peek = %+v; want 1 hit, 0 misses", s)
	}
	c.Put("c", 3)
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b survived eviction although Peek moved a to the front")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("Peek did not refresh a's LRU position")
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 0 || s.Evictions != 1 {
		t.Fatalf("stats = %+v; want 2 hits, 0 misses, 1 eviction", s)
	}
}

func TestPeekAbsentCountsNothing(t *testing.T) {
	c := New(0)
	tier := newFakeTier()
	tier.data["k"] = "on disk"
	c.SetSecondTier(tier)
	if v, ok := c.Peek("k"); ok {
		t.Fatalf("Peek(k) on an empty memory tier = %v, true", v)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 || s.DiskHits != 0 {
		t.Fatalf("stats after absent Peek = %+v; want all zero", s)
	}
	if n := tier.gets.Load(); n != 0 {
		t.Fatalf("Peek probed the second tier %d times, want 0", n)
	}
}

func TestPeekNeverJoinsOrStartsInflight(t *testing.T) {
	c := New(0)
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := c.GetOrCompute("busy", func() (any, error) {
			close(entered)
			<-release
			return "value", nil
		}); err != nil {
			t.Errorf("GetOrCompute: %v", err)
		}
	}()
	<-entered
	// The computation is parked; a Peek that joined it would block here.
	if v, ok := c.Peek("busy"); ok {
		t.Fatalf("Peek joined the in-flight computation: %v", v)
	}
	close(release)
	<-done

	// An absent Peek registers no singleflight slot: the next
	// GetOrCompute is the one miss and runs compute itself.
	c.Peek("idle")
	computed := 0
	if _, hit, err := c.GetOrCompute("idle", func() (any, error) { computed++; return 1, nil }); err != nil || hit {
		t.Fatalf("GetOrCompute after absent Peek: hit=%t err=%v; want a computed miss", hit, err)
	}
	if computed != 1 {
		t.Fatalf("compute ran %d times, want 1", computed)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 || s.Waits != 0 {
		t.Fatalf("stats = %+v; want 0 hits, 2 misses, 0 waits", s)
	}
}

func TestGetOrComputeSingleflight(t *testing.T) {
	c := New(0)
	const goroutines = 16
	var computed atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() (any, error) {
				computed.Add(1)
				<-release // hold every concurrent caller in the miss window
				return "value", nil
			})
			if err != nil {
				t.Errorf("GetOrCompute: %v", err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != goroutines-1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New(0)
	calls := 0
	fail := func() (any, error) { calls++; return nil, fmt.Errorf("boom") }
	if _, _, err := c.GetOrCompute("k", fail); err == nil {
		t.Fatal("error swallowed")
	}
	if _, _, err := c.GetOrCompute("k", fail); err == nil {
		t.Fatal("error cached as success")
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors must not cache)", calls)
	}
	if _, _, err := c.GetOrCompute("k", func() (any, error) { return 7, nil }); err != nil {
		t.Fatalf("recovery compute failed: %v", err)
	}
	if v, ok := c.Get("k"); !ok || v.(int) != 7 {
		t.Fatalf("recovered value not cached: %v, %t", v, ok)
	}
}

func TestReset(t *testing.T) {
	c := New(0)
	c.Put("a", 1)
	c.Get("a")
	c.Reset()
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived reset")
	}
}

func TestResetDuringInflight(t *testing.T) {
	c := New(0)
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := c.GetOrCompute("k", func() (any, error) {
			close(entered)
			<-release
			return "stale", nil
		})
		if err != nil {
			t.Errorf("GetOrCompute: %v", err)
		}
	}()
	<-entered
	c.Reset()
	close(release)
	<-done
	// The pre-reset computation must not repopulate the emptied cache.
	if _, ok := c.Get("k"); ok {
		t.Fatal("stale in-flight result cached across Reset")
	}
}
