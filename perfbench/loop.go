package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// errUnsent marks an open-loop arrival still queued when the window
// closed: a failed operation, but not a wrong answer.
var errUnsent = errors.New("arrival unsent when the window closed")

// tally accumulates the outcome of a measured window.
type tally struct {
	mu        sync.Mutex
	lats      []float64 // ms, operations that passed the oracle
	attempted int
	failed    int
	// wrong counts failures other than unsent arrivals: transport
	// errors, non-2xx replies and bodies the oracle rejects.
	wrong    int
	firstErr error
	elapsed  time.Duration

	// Open loop only, in ms: how late an idle connection woke for an
	// arrival it was waiting for, and how long an arrival due while
	// every connection was busy waited for one.
	late  []float64
	queue []float64
}

func (t *tally) add(lat time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if !errors.Is(err, errUnsent) {
			t.wrong++
		}
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.lats = append(t.lats, float64(lat)/float64(time.Millisecond))
}

// pool merges the tallies of several windows into one.
func pool(parts []*tally) *tally {
	t := &tally{}
	for _, p := range parts {
		t.lats = append(t.lats, p.lats...)
		t.late = append(t.late, p.late...)
		t.queue = append(t.queue, p.queue...)
		t.attempted += p.attempted
		t.failed += p.failed
		t.wrong += p.wrong
		t.elapsed += p.elapsed
		if t.firstErr == nil {
			t.firstErr = p.firstErr
		}
	}
	return t
}

// quantile is the nearest-rank q-quantile of an unsorted sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// client is what the load loops need from the topology; observe, when set,
// sees every reply (the traced run correlates them with its spans).
type client struct {
	st      *stack
	check   func(req request, status int, body []byte) error
	observe func(rid string, req request, resp response)
	ids     atomic.Int64
}

// send performs one request and checks its reply against the oracle.
func (c *client) send(ctx context.Context, req request) error {
	rid := fmt.Sprintf("pb-%d", c.ids.Add(1))
	resp, err := c.st.do(ctx, req, rid)
	if err != nil {
		return err
	}
	if c.observe != nil {
		c.observe(rid, req, resp)
	}
	return c.check(req, resp.status, resp.body)
}

// closedLoop runs clients that each send their next request from seq
// only after the previous reply, until dur has passed. Latency is timed
// from send.
func closedLoop(ctx context.Context, c *client, seq []request, clients int, dur time.Duration) *tally {
	t := &tally{}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				req := seq[int(next.Add(1)-1)%len(seq)]
				t0 := time.Now()
				err := c.send(ctx, req)
				t.add(time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}

// warmPass sends every request once over clients concurrent clients.
func warmPass(ctx context.Context, c *client, reqs []request, clients int) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(reqs) {
					return
				}
				if err := c.send(ctx, reqs[j]); err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sendArrival lints and then predicts one arrival's module.
func sendArrival(ctx context.Context, c *client, a arrival) error {
	if err := c.send(ctx, a.lint); err != nil {
		return err
	}
	return c.send(ctx, a.predict)
}

// openLoop replays a seeded arrival schedule over conns connections.
// Each connection takes the next arrival, sleeps until it is due if it
// is early, and sends it; an arrival due while every connection is busy
// waits for the first to free up, and none is dropped. Every arrival is
// timed from its due time, so a stall also charges the arrivals queued
// behind it. An arrival still unsent when the window closes counts as
// failed.
func openLoop(ctx context.Context, c *client, arrivals []arrival, conns int, dur time.Duration) *tally {
	t := &tally{}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				due := start.Add(time.Duration(arrivals[i].due * float64(time.Second)))
				slept := false
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					slept = true
				}
				if time.Since(start) >= dur {
					t.add(0, errUnsent)
					continue
				}
				wait := float64(time.Since(due)) / float64(time.Millisecond)
				t.mu.Lock()
				if slept {
					t.late = append(t.late, wait)
				} else {
					t.queue = append(t.queue, wait)
				}
				t.mu.Unlock()
				err := sendArrival(ctx, c, arrivals[i])
				t.add(time.Since(due), err)
			}
		}()
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}
