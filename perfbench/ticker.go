package main

import (
	"time"
)

// tick is one open-loop tick, as offsets from the schedule's start:
// when it was due, when it began and when it returned.
type tick struct {
	Due, Start, End time.Duration
	Err             error
}

// Late is how far behind its schedule the generator ran.
func (t tick) Late() time.Duration { return t.Start - t.Due }

// Service is how long the call itself took.
func (t tick) Service() time.Duration { return t.End - t.Start }

// Latency is timed from when the tick was due, so a stall also
// charges the ticks queued behind it.
func (t tick) Latency() time.Duration { return t.End - t.Due }

// clock abstracts time for the ticker so its accounting can be tested
// without sleeping.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// openLoop calls fn on a fixed schedule — tick k is due at
// start + k·interval whatever the previous ticks took — until stop is
// closed. A tick that finds itself behind schedule runs at once
// without skipping, so a stall shows as lateness on the ticks after
// it rather than as a thinner schedule.
func openLoop(c clock, interval time.Duration, stop <-chan struct{}, fn func() error) []tick {
	start := c.now()
	var out []tick
	for k := 0; ; k++ {
		due := time.Duration(k) * interval
		if wait := due - c.now().Sub(start); wait > 0 {
			c.sleep(wait)
		}
		select {
		case <-stop:
			return out
		default:
		}
		t := tick{Due: due, Start: c.now().Sub(start)}
		t.Err = fn()
		t.End = c.now().Sub(start)
		out = append(out, t)
	}
}
