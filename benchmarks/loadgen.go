package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop generator: arrivals follow a schedule precomputed from the
// seed, regardless of how fast the server answers. Each request is stamped
// with its due time and its latency runs from then, so a stall is charged
// to every request it delays. Requests wait in a bounded queue when all
// connections are busy; an arrival that finds the queue full is refused.

// Request classes of the serve_mixed mix.
const (
	classHit = iota
	classLarge
	classMiss
	classVal
	numClasses
)

var classNames = [numClasses]string{"hit", "large", "miss", "val"}

// request is one scheduled arrival.
type request struct {
	class int
	tmpl  int           // hot template or large query id, for the cached check; -1 otherwise
	path  string        // "/query" or "/val/<name>"
	body  []byte        // the POST body
	want  string        // expected value in exchange format ("" for val)
	due   time.Duration // arrival time, from the start of the step
}

// outcome is what became of one arrival.
type outcome struct {
	class     int
	refused   bool
	err       error         // transport error, wrong status or wrong answer
	lat       time.Duration // completion minus due time
	late      time.Duration // actual send minus due time: how late the generator ran
	roundTrip time.Duration // completion minus actual send
	wallNS    int64         // wall_ns of the response
	phasesNS  int64         // sum of the response's phases
}

// queryResponse is the part of aqld's POST /query body the generator reads.
type queryResponse struct {
	Cached bool   `json:"cached"`
	Value  string `json:"value"`
	WallNS int64  `json:"wall_ns"`
	Phases []struct {
		Name string `json:"name"`
		NS   int64  `json:"wall_ns"`
	} `json:"phases"`
}

// tmplState backs the cached check of one repeated query text: a response
// must be a plan-cache hit when an earlier request for the text was answered
// before this one was sent, no val rebinding was in flight when that earlier
// request was sent, and none has been sent since.
type tmplState struct {
	answeredAt time.Time // zero until the text has been answered once
	valsSent   int64     // val requests sent when that answered request was sent
	quiet      bool      // none of them was still in flight then
}

type loadgen struct {
	base    string
	clients []*http.Client // one keep-alive connection each

	mu       sync.Mutex
	tmpl     map[int]*tmplState
	valsSent atomic.Int64
	valsDone atomic.Int64
}

func newLoadgen(base string, conns int) *loadgen {
	g := &loadgen{base: base, tmpl: make(map[int]*tmplState)}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// send performs one request on one connection and checks the response:
// status, value and the cached flag, per class.
func (g *loadgen) send(c *http.Client, r *request) outcome {
	out, _ := g.sendDecoded(c, r)
	return out
}

// sendDecoded is send, also returning the decoded response body.
func (g *loadgen) sendDecoded(c *http.Client, r *request) (out outcome, qr queryResponse) {
	out = outcome{class: r.class}
	// Read in this order, done == sent proves no val was in flight.
	done, sent := g.valsDone.Load(), g.valsSent.Load()
	if r.class == classVal {
		g.valsSent.Add(1)
		defer g.valsDone.Add(1)
	}
	t0 := time.Now()
	resp, err := c.Post(g.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		out.err = err
		return out, qr
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.roundTrip = time.Since(t0)
	if err != nil {
		out.err = err
		return out, qr
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("%s: status %d: %.200s", classNames[r.class], resp.StatusCode, body)
		return out, qr
	}
	if r.class == classVal {
		return out, qr
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		out.err = fmt.Errorf("%s: bad response: %w", classNames[r.class], err)
		return out, qr
	}
	out.wallNS = qr.WallNS
	for _, p := range qr.Phases {
		out.phasesNS += p.NS
	}
	if qr.Value != r.want {
		out.err = fmt.Errorf("%s: wrong answer: got %.80s, want %.80s", classNames[r.class], qr.Value, r.want)
		return out, qr
	}
	switch {
	case r.class == classMiss && qr.Cached:
		out.err = fmt.Errorf("miss: a never-seen text was served from the plan cache")
	case r.tmpl >= 0:
		g.mu.Lock()
		st := g.tmpl[r.tmpl]
		if st == nil {
			st = &tmplState{}
			g.tmpl[r.tmpl] = st
		}
		mustHit := st.quiet && !st.answeredAt.IsZero() && st.answeredAt.Before(t0) && st.valsSent == g.valsSent.Load()
		*st = tmplState{answeredAt: time.Now(), valsSent: sent, quiet: done == sent}
		g.mu.Unlock()
		if mustHit && !qr.Cached {
			out.err = fmt.Errorf("%s: a repeated text with no rebinding since was not a plan-cache hit", classNames[r.class])
		}
	}
	return out, qr
}

// stepResult is one fixed-rate step of the open loop.
type stepResult struct {
	rate     float64
	wall     time.Duration // first due time to last completion
	outcomes []outcome
	depths   []int // queue depth plus requests in flight, sampled at each arrival
}

// queueCap bounds the generator's queue: at the 50 ms limit even the
// highest rate holds fewer requests than this in flight.
const queueCap = 64

// runStep plays one schedule against the server.
func (g *loadgen) runStep(rate float64, reqs []request) stepResult {
	res := stepResult{rate: rate, outcomes: make([]outcome, len(reqs)), depths: make([]int, 0, len(reqs))}
	// The buffer is the bounded queue itself.
	queue := make(chan int, queueCap)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				r := &reqs[i]
				inflight.Add(1)
				late := time.Since(start) - r.due
				out := g.send(c, r)
				out.late = late
				out.lat = time.Since(start) - r.due
				inflight.Add(-1)
				res.outcomes[i] = out
			}
		}(c)
	}
	for i := range reqs {
		if wait := reqs[i].due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		res.depths = append(res.depths, len(queue)+int(inflight.Load()))
		select {
		case queue <- i:
		default:
			res.outcomes[i] = outcome{class: reqs[i].class, refused: true}
		}
	}
	close(queue)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// runSaturated is the closed-loop pass that measures capacity: every
// connection sends the next request of reqs as soon as its previous one has
// completed, for d or until reqs runs out. Due times are ignored.
func (g *loadgen) runSaturated(reqs []request, d time.Duration) (ok int, errs []error, wall time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out := g.send(c, &reqs[i])
				mu.Lock()
				if out.err != nil {
					errs = append(errs, out.err)
				} else {
					ok++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ok, errs, time.Since(start)
}

// backlogGrowing compares the queue depth in the first and the last third
// of a step: a backlog that grows means the rate is above capacity even if
// the requests completed so far met the limit.
func backlogGrowing(depths []int) bool {
	third := len(depths) / 3
	if third == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	first, last := mean(depths[:third]), mean(depths[len(depths)-third:])
	return last > 2*first+2
}

// latencyLimit is the p99 limit, from due time, a rate must meet.
const latencyLimit = 50 * time.Millisecond

// stepSummary condenses a step into the numbers the report needs.
type stepSummary struct {
	rate       float64
	n          int
	okCount    int
	refused    int
	failed     int
	p50, p90   float64 // ms, from due time, over answered requests
	p99        float64 // ms; refused and failed requests count as missing the limit
	lateP99    float64 // ms
	backlogMax int
	growing    bool
	goodput    float64 // correct responses per second of step wall time
	meets      bool
	errs       []error
}

func summarize(res stepResult) stepSummary {
	s := stepSummary{rate: res.rate, n: len(res.outcomes)}
	var lat, late []float64
	for _, o := range res.outcomes {
		switch {
		case o.refused:
			s.refused++
		case o.err != nil:
			s.failed++
			s.errs = append(s.errs, o.err)
		default:
			s.okCount++
			lat = append(lat, ms(o.lat))
			late = append(late, ms(o.late))
		}
	}
	for _, d := range res.depths {
		if d > s.backlogMax {
			s.backlogMax = d
		}
	}
	s.growing = backlogGrowing(res.depths)
	s.goodput = float64(s.okCount) / res.wall.Seconds()
	if len(lat) == 0 {
		return s
	}
	sorted := sortedCopy(lat)
	s.p50, s.p90 = percentile(sorted, 50), percentile(sorted, 90)
	s.lateP99 = percentile(sortedCopy(late), 99)
	// A request that failed or was refused missed the limit: rank the p99
	// over all arrivals with those at +Inf.
	rank := int(float64(s.n)*0.99+0.999999) - 1
	missesLimit := rank >= len(sorted)
	if !missesLimit {
		s.p99 = sorted[rank]
	} else {
		s.p99 = sorted[len(sorted)-1]
	}
	s.meets = !missesLimit && s.p99 <= ms(latencyLimit) && s.refused == 0 && s.failed == 0 && !s.growing
	return s
}
