package kcache

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyFieldBoundaries(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("length prefixing failed: shifted fields collide")
	}
	if Key("x") != Key("x") {
		t.Error("Key is not deterministic")
	}
	if Key("x") == Key("x", "") {
		t.Error("trailing empty field should change the key")
	}
}

func TestHitMiss(t *testing.T) {
	c := New(4)
	calls := 0
	compute := func() (interface{}, error) { calls++; return 42, nil }

	v, out, err := c.Do("k", compute)
	if err != nil || v.(int) != 42 || out != Miss {
		t.Fatalf("first Do = (%v, %v, %v), want (42, miss, nil)", v, out, err)
	}
	v, out, err = c.Do("k", compute)
	if err != nil || v.(int) != 42 || out != Hit {
		t.Fatalf("second Do = (%v, %v, %v), want (42, hit, nil)", v, out, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Dedups != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v, want hits=1 misses=1 dedups=0 entries=1", st)
	}
}

func TestSingleflight(t *testing.T) {
	const waiters = 16
	c := New(8)
	var calls int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do("shared", func() (interface{}, error) {
				atomic.AddInt32(&calls, 1)
				<-release // hold the flight open until all waiters arrive
				return "artifact", nil
			})
			if err != nil || v.(string) != "artifact" {
				t.Errorf("waiter %d: got (%v, %v)", i, v, err)
			}
			outcomes[i] = out
		}(i)
	}
	// Wait until the other waiters are parked on the in-flight compute,
	// then let it finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Snapshot()
		if st.Dedups == waiters-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiters never parked: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	misses, dedups := 0, 0
	for _, o := range outcomes {
		switch o {
		case Miss:
			misses++
		case Dedup:
			dedups++
		default:
			t.Errorf("unexpected outcome %v", o)
		}
	}
	if misses != 1 || dedups != waiters-1 {
		t.Errorf("outcomes: %d misses, %d dedups; want 1, %d", misses, dedups, waiters-1)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	put := func(k string) {
		if _, _, err := c.Do(k, func() (interface{}, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	// Touch "a" so "b" is now least recently used.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be resident")
	}
	put("c") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be resident")
	}
	st := c.Snapshot()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want evictions=1 entries=2", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(4)
	calls := 0
	boom := errors.New("transient")
	compute := func() (interface{}, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := c.Do("k", compute); err != boom {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed compute must not leave an entry")
	}
	v, out, err := c.Do("k", compute)
	if err != nil || v.(string) != "ok" || out != Miss {
		t.Fatalf("retry = (%v, %v, %v), want (ok, miss, nil)", v, out, err)
	}
}

func TestSharedErrorWakesWaiters(t *testing.T) {
	c := New(4)
	release := make(chan struct{})
	boom := errors.New("shared failure")
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do("k", func() (interface{}, error) {
				<-release
				return nil, boom
			})
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot().Dedups != int64(len(errs)-1) {
		if time.Now().After(deadline) {
			t.Fatal("waiters never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != boom {
			t.Errorf("waiter %d err = %v, want shared failure", i, err)
		}
	}
}

// TestConcurrentChurn hammers a small cache from many goroutines; run
// under -race it checks the lock discipline, and at the end every counter
// must reconcile.
func TestConcurrentChurn(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	const goroutines = 16
	const opsPer = 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%24) // 24 keys > capacity 8
				v, _, err := c.Do(key, func() (interface{}, error) { return key, nil })
				if err != nil {
					t.Errorf("Do(%s): %v", key, err)
					return
				}
				if v.(string) != key {
					t.Errorf("Do(%s) returned %v", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Snapshot()
	if st.Hits+st.Misses+st.Dedups != goroutines*opsPer {
		t.Errorf("counters do not reconcile: %+v", st)
	}
	if st.Entries > 8 {
		t.Errorf("capacity bound violated: %d entries", st.Entries)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight leak: %d", st.InFlight)
	}
}

// TestDoMany: the keys nobody holds are computed together in one call, the
// resident ones hit, errors are per key and not cached, and each value is
// published under its own key for later single-key callers.
func TestDoMany(t *testing.T) {
	c := New(8)
	if _, _, err := c.Do("b", func() (interface{}, error) { return "B", nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("d failed")
	calls := 0
	before := c.Snapshot()
	vals, outs, errs := c.DoMany([]string{"a", "b", "c", "d"}, func(miss []int) ([]interface{}, []error) {
		calls++
		if !reflect.DeepEqual(miss, []int{0, 2, 3}) {
			t.Errorf("compute asked for %v, want the three absent keys", miss)
		}
		return []interface{}{"A", "C", nil}, []error{nil, nil, boom}
	})
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	if st := c.Snapshot(); st.Misses-before.Misses != 3 || st.Hits-before.Hits != 1 || st.InFlight != 0 {
		t.Errorf("counters: %+v → %+v, want one tally per key", before, st)
	}
	if !reflect.DeepEqual(vals, []interface{}{"A", "B", "C", nil}) ||
		!reflect.DeepEqual(outs, []Outcome{Miss, Hit, Miss, Miss}) ||
		errs[0] != nil || errs[1] != nil || errs[2] != nil || errs[3] != boom {
		t.Errorf("DoMany = %v %v %v", vals, outs, errs)
	}
	for key, want := range map[string]string{"a": "A", "c": "C"} {
		if v, ok := c.Get(key); !ok || v != want {
			t.Errorf("Get(%s) = %v, %v", key, v, ok)
		}
	}
	if _, ok := c.Get("d"); ok {
		t.Error("a failed compute was cached")
	}
	_, outs, _ = c.DoMany([]string{"a", "b"}, func([]int) ([]interface{}, []error) {
		t.Error("compute ran with every key resident")
		return nil, nil
	})
	if !reflect.DeepEqual(outs, []Outcome{Hit, Hit}) {
		t.Errorf("all-resident DoMany outcomes %v", outs)
	}
}

// TestDoManyOverlap: two DoMany calls with overlapping keys compute
// disjoint parts and wait for each other's only afterwards, so neither
// can deadlock on the other; a panicking compute wakes its waiters.
func TestDoManyOverlap(t *testing.T) {
	c := New(8)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	var first, second []Outcome
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, first, _ = c.DoMany([]string{"x", "y"}, func(miss []int) ([]interface{}, []error) {
			close(started)
			<-release
			return []interface{}{"X", "Y"}, []error{nil, nil}
		})
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		var vals []interface{}
		vals, second, _ = c.DoMany([]string{"y", "z"}, func(miss []int) ([]interface{}, []error) {
			if !reflect.DeepEqual(miss, []int{1}) {
				t.Errorf("second caller computes %v, want only z", miss)
			}
			close(release) // the first flight ends only once this one computed
			return []interface{}{"Z"}, []error{nil}
		})
		if !reflect.DeepEqual(vals, []interface{}{"Y", "Z"}) {
			t.Errorf("second caller got %v", vals)
		}
	}()
	wg.Wait()
	if !reflect.DeepEqual(first, []Outcome{Miss, Miss}) || !reflect.DeepEqual(second, []Outcome{Dedup, Miss}) {
		t.Errorf("outcomes %v and %v", first, second)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("compute's panic did not propagate")
			}
		}()
		c.DoMany([]string{"p", "q"}, func([]int) ([]interface{}, []error) { panic("boom") })
	}()
	if st := c.Snapshot(); st.InFlight != 0 {
		t.Errorf("a panicked DoMany left %d flights open", st.InFlight)
	}
}
