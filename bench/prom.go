package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promSample is one scrape of the daemon's /metrics, keyed by the series
// as printed: name{label="value",...}.
type promSample map[string]float64

// scrape reads the daemon's Prometheus text exposition. It is served on
// the aggregation port, uninstrumented, so a scrape does not move the
// request counters it reads.
func scrape(hc *http.Client, base string) (promSample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(promSample)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("unparsable /metrics line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after[series] - before[series]; ok is false when the
// daemon no longer publishes the series, which yields an absent layer
// metric and not a failure.
func delta(before, after promSample, series string) (d float64, ok bool) {
	a, ok := after[series]
	if !ok {
		return 0, false
	}
	return a - before[series], true
}

// histQuantile estimates the q-quantile of what a histogram observed
// between two scrapes, interpolating inside the bucket like Prometheus'
// histogram_quantile. labels is the series' own label set without le,
// e.g. `route="/v1/sessions/{id}/task"`, or "". ok is false when the
// histogram is missing or observed nothing.
func histQuantile(before, after promSample, name, labels string, q float64) (v float64, ok bool) {
	type bucket struct{ le, cum float64 }
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	prefix += `le="`
	var bs []bucket
	for series, a := range after {
		rest, found := strings.CutPrefix(series, prefix)
		if !found {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, a - before[series]})
	}
	if len(bs) == 0 {
		return 0, false
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total <= 0 {
		return 0, false
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo, true
			}
			if b.cum == prev {
				return b.le, true
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev), true
		}
		lo, prev = b.le, b.cum
	}
	return lo, true
}
