package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPlanCacheEvictionRace: a tiny cache thrashed by concurrent queries —
// every request cycles through more distinct plans than the cache holds, so
// entries are constantly evicted while other goroutines still execute the
// evicted Programs. Compiled Programs are immutable, so an eviction must
// never affect an in-flight execution; run under -race this doubles as a
// data-race check on get/put/evict and on shared Program execution.
func TestPlanCacheEvictionRace(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 2, MaxConcurrent: 16, MaxQueued: 256})

	const distinct = 8
	queries := make([]string, distinct)
	for k := range queries {
		queries[k] = fmt.Sprintf("%d * 7 + 1", k)
	}

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w + i) % distinct
				qr, status, err := postQuery(ts, QueryRequest{Query: queries[k]})
				if err != nil {
					t.Errorf("worker %d iter %d: %v (status %d)", w, i, err, status)
					return
				}
				want := fmt.Sprintf("%d", k*7+1)
				if qr.Value != want {
					t.Errorf("worker %d: %q = %q, want %s", w, queries[k], qr.Value, want)
					return
				}
				if qr.Eval.Steps == 0 {
					t.Errorf("worker %d: zero step count on %q", w, queries[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()

	cs := s.cache.stats()
	if cs.Evictions == 0 {
		t.Error("cache was never evicted; the test did not thrash")
	}
	if cs.Size > 2 {
		t.Errorf("cache size %d exceeds capacity 2", cs.Size)
	}
	if cs.Hits+cs.Misses != workers*iters {
		t.Errorf("hits %d + misses %d != %d lookups", cs.Hits, cs.Misses, workers*iters)
	}
}

// TestRebindNeverServesStalePlan: goroutines query `x + 0` while another
// rebinds x to 1, 2, …, n through POST /val/x. A rebind acknowledged before
// a request is sent must be visible to that request, whether it is served
// from the plan cache or prepares afresh: every answer is at least the last
// value acknowledged when its request left. Run under -race this also
// checks the plan lookup against concurrent environment mutation.
func TestRebindNeverServesStalePlan(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 16, MaxQueued: 256})

	setX := func(v int) error {
		resp, err := http.Post(ts.URL+"/val/x", "text/plain", strings.NewReader(strconv.Itoa(v)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("POST /val/x=%d: status %d: %s", v, resp.StatusCode, b)
		}
		return nil
	}
	if err := setX(0); err != nil {
		t.Fatal(err)
	}

	const rebinds = 60
	const readers = 4
	var acked atomic.Int64 // the last value whose rebind was acknowledged
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := acked.Load()
				qr, status, err := postQuery(ts, QueryRequest{Query: "x + 0"})
				if err != nil {
					t.Errorf("reader %d: %v (status %d)", r, err, status)
					return
				}
				got, err := strconv.ParseInt(qr.Value, 10, 64)
				if err != nil {
					t.Errorf("reader %d: value %q: %v", r, qr.Value, err)
					return
				}
				if got < floor || got > rebinds {
					t.Errorf("reader %d: x + 0 = %d (cached %v) after x=%d was acknowledged",
						r, got, qr.Cached, floor)
					return
				}
			}
		}(r)
	}
	for v := 1; v <= rebinds; v++ {
		if err := setX(v); err != nil {
			t.Error(err)
			break
		}
		acked.Store(int64(v))
	}
	close(done)
	wg.Wait()
}

// TestRebindNeverTearsPlan: one goroutine rebinds W through POST /val/W,
// alternating a nat vector and a real, while readers send `W[0] + 1`. A plan
// typechecks and lowers against one read of W, so every answer is the value
// under the vector binding or a 400 type error under the real one; a plan
// typechecked against one binding and lowered against the other would fail
// in evaluation (422) or panic (500). Run under -race.
func TestRebindNeverTearsPlan(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 16, MaxQueued: 256})
	setW := func(body string) error {
		resp, err := http.Post(ts.URL+"/val/W", "text/plain", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("POST /val/W=%s: status %d: %s", body, resp.StatusCode, b)
		}
		return nil
	}
	if err := setW("[[5, 6]]"); err != nil {
		t.Fatal(err)
	}

	const rebinds = 200
	const readers = 4
	done := make(chan struct{})
	var answers, typeErrors atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				qr, status, err := postQuery(ts, QueryRequest{Query: "W[0] + 1"})
				var ei *errorInfoError
				switch {
				case err == nil && qr.Value == "6":
					answers.Add(1)
				case status == http.StatusBadRequest && errors.As(err, &ei) && ei.Info.Kind == "type":
					typeErrors.Add(1)
				case err == nil:
					t.Errorf("reader %d: W[0] + 1 = %s (cached %v), want 6 or a type error", r, qr.Value, qr.Cached)
					return
				default:
					t.Errorf("reader %d: status %d: %v (a torn plan)", r, status, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < rebinds; i++ {
		body := "[[5, 6]]"
		if i%2 == 0 {
			body = "2.5"
		}
		if err := setW(body); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	t.Logf("%d answers, %d type errors", answers.Load(), typeErrors.Load())
}
