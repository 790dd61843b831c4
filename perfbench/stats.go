package main

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before
// the benchmark reports it.
const minBeyond = 10

// percentileLadder is the set of percentiles the benchmark may report
// as a tail figure, lowest first.
var percentileLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile on the ladder that has
// at least minBeyond of n samples above its nearest-rank position, or
// 0 when even the median lacks that many.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples. The tolerance keeps binary rounding of p/100 (99.9
// is not exact) from pushing an exact rank up by one.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(k, 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// summary is a metric's distribution over the repeats that produced
// it: the median and quartiles as Python's statistics.quantiles(n=4)
// computes them, and the number of samples behind it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the quartiles of vals with the "exclusive" method
// (statistics.quantiles' default), so the spreads printed here match
// the ones any Python tooling computes from the same values.
func summarize(vals []float64) summary {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

// Latency histogram geometry: log-linear buckets, histBits of
// mantissa per power of two, so a bucket is at most 1/2^(histBits-1)
// of its value wide (under 1%) and a histogram has a fixed size
// however many calls a run makes.
const (
	histBits = 8
	histRows = 64 - histBits + 1
)

// latHist counts call latencies (ns). Refused calls sit above every
// bucket, so a percentile that reaches them is +Inf.
type latHist struct {
	counts  [histRows << histBits]uint32
	n       int64 // calls, refused included
	refused int64
	sum     int64 // ns over the calls that succeeded
}

func bucketOf(v uint64) int {
	shift := max(bits.Len64(v)-histBits, 0)
	return shift<<histBits + int(v>>shift)
}

// bucketRange is the [lo, hi) span of values a bucket holds.
func bucketRange(idx int) (lo, hi float64) {
	shift := idx >> histBits
	m := uint64(idx & (1<<histBits - 1))
	return float64(m << shift), float64((m + 1) << shift)
}

func (h *latHist) add(d time.Duration) {
	h.n++
	h.sum += int64(d)
	h.counts[bucketOf(uint64(max(d, 0)))]++
}

func (h *latHist) addRefused() {
	h.n++
	h.refused++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.refused += o.refused
	h.sum += o.sum
}

// percentile returns the nearest-rank p-th percentile in ns,
// interpolated inside its bucket; +Inf when it falls on a refused
// call, 0 for an empty histogram.
func (h *latHist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	k := int64(rank(int(h.n), p))
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+int64(c) >= k {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(float64(k-seen)-0.5)/float64(c)
		}
		seen += int64(c)
	}
	return math.Inf(1)
}

// window accumulates what one slice of the measured interval served.
type window struct {
	Calls  int64
	Preds  int64 // predictions attempted
	Failed int64 // predictions that failed
	lat    latHist
}

// callLog is one client's record of a load phase: per window, the
// latency histogram of its calls (failed calls counted as refused)
// and prediction counts. Each client owns its log, so recording takes
// no lock.
type callLog struct {
	start   time.Time
	winLen  time.Duration
	windows []window

	// Accuracy tallies (the paper's Fig. 11): observed-HL requests and
	// how many were predicted HL, and the same for observed NL.
	obsHL, hlHits, obsNL, nlHits int64
	retries, fallback            int64
}

func newCallLog(start time.Time, length time.Duration, windows int) *callLog {
	return &callLog{
		start:   start,
		winLen:  length / time.Duration(windows),
		windows: make([]window, windows),
	}
}

// record adds one call that ended at end after taking d, carrying
// preds predictions of which failed did not succeed. A call with any
// failed prediction is a refused call for the latency percentiles.
func (l *callLog) record(end time.Time, d time.Duration, preds, failed int) {
	w := &l.windows[min(max(int(end.Sub(l.start)/l.winLen), 0), len(l.windows)-1)]
	if failed > 0 {
		w.lat.addRefused()
	} else {
		w.lat.add(d)
	}
	w.Calls++
	w.Preds += int64(preds)
	w.Failed += int64(failed)
}

// outcome folds one successful prediction into the accuracy tallies.
func (l *callLog) outcome(predHL, obsHL bool, retries int, fallback bool) {
	if obsHL {
		l.obsHL++
		if predHL {
			l.hlHits++
		}
	} else {
		l.obsNL++
		if !predHL {
			l.nlHits++
		}
	}
	l.retries += int64(retries)
	if fallback {
		l.fallback++
	}
}

// phase merges the clients' logs of one load phase.
type phase struct {
	length  time.Duration
	windows []window
	all     latHist

	obsHL, hlHits, obsNL, nlHits int64
	retries, fallback            int64
}

func mergeLogs(length time.Duration, logs []*callLog) phase {
	p := phase{length: length, windows: make([]window, len(logs[0].windows))}
	for _, l := range logs {
		for i := range l.windows {
			w, lw := &p.windows[i], &l.windows[i]
			w.Calls += lw.Calls
			w.Preds += lw.Preds
			w.Failed += lw.Failed
			w.lat.merge(&lw.lat)
			p.all.merge(&lw.lat)
		}
		p.obsHL += l.obsHL
		p.hlHits += l.hlHits
		p.obsNL += l.obsNL
		p.nlHits += l.nlHits
		p.retries += l.retries
		p.fallback += l.fallback
	}
	return p
}

func (p phase) attempted() (preds, failed int64) {
	for i := range p.windows {
		preds += p.windows[i].Preds
		failed += p.windows[i].Failed
	}
	return preds, failed
}

// throughput is successful predictions per wall second, one value per
// window.
func (p phase) throughput() []float64 {
	secs := p.length.Seconds() / float64(len(p.windows))
	out := make([]float64, len(p.windows))
	for i := range p.windows {
		out[i] = float64(p.windows[i].Preds-p.windows[i].Failed) / secs
	}
	return out
}

// latencyUS returns the spread across windows of each window's p-th
// percentile call latency in microseconds (+Inf where it falls on a
// refused call); N is the number of calls behind it.
func (p phase) latencyUS(pct float64) summary {
	per := make([]float64, 0, len(p.windows))
	for i := range p.windows {
		if h := &p.windows[i].lat; h.n > 0 {
			per = append(per, h.percentile(pct)/1e3)
		}
	}
	s := summarize(per)
	s.N = int(p.all.n)
	return s
}

// minWindowCalls is the call count of the emptiest window.
func (p phase) minWindowCalls() int {
	n := int(p.all.n)
	for i := range p.windows {
		n = min(n, int(p.windows[i].Calls))
	}
	return n
}

// meanUS is the mean latency of the calls that succeeded.
func (p phase) meanUS() float64 {
	return ratioF(p.all.sum, p.all.n-p.all.refused) / 1e3
}

func (p phase) hlAccuracy() float64 { return ratioOr1(p.hlHits, p.obsHL) }
func (p phase) nlAccuracy() float64 { return ratioOr1(p.nlHits, p.obsNL) }

// ratioOr1 follows the fleet's convention: accuracy over an empty
// class is 1.
func ratioOr1(num, den int64) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}
