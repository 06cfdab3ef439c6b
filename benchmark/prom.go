package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// promSample is one scrape of a process's /metrics: every sample line
// keyed by its full series name, label block included, exactly as the
// exposition writes it (`psml_request_seconds_bucket{path="mul_wire",le="0.001"}`).
type promSample map[string]float64

// parseProm reads Prometheus text exposition. Comment lines are skipped;
// a line that does not end in a number is an error (a truncated scrape
// must not read as zeros).
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value of %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses http://addr/metrics.
func scrape(addr string) (promSample, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	return parseProm(resp.Body)
}

// promDelta is after − before, series by series. A series absent from
// before counts from zero (it was registered lazily); a counter that went
// backwards (a restarted process) is an error, never a negative rate.
func promDelta(before, after promSample) (promSample, error) {
	d := make(promSample, len(after))
	for k, a := range after {
		b := before[k]
		if a < b && isCounterSeries(k) {
			return nil, fmt.Errorf("prom: %s went backwards (%g → %g): process restarted?", k, b, a)
		}
		d[k] = a - b
	}
	return d, nil
}

// isCounterSeries tells monotone series (counters and histogram parts)
// from gauges by the exposition's naming convention.
func isCounterSeries(series string) bool {
	name := series
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, suf := range []string{"_total", "_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// sumFamily adds every series of a family whose label block contains all
// of the given `key="value"` fragments.
func (s promSample) sumFamily(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		name, lbl := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			name, lbl = k[:i], k[i:]
		}
		if name != family {
			continue
		}
		if hasLabels(lbl, labels) {
			total += v
		}
	}
	return total
}

// hasLabels reports whether a label block contains every `key="value"`
// fragment.
func hasLabels(block string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(block, l) {
			return false
		}
	}
	return true
}

// histQuantile estimates the q-quantile, in seconds, of a histogram
// family from its (delta) cumulative buckets, interpolating linearly
// inside the bucket like Prometheus' histogram_quantile. labels selects
// one histogram of a labelled family. No observations read as 0.
func (s promSample) histQuantile(family string, q float64, labels ...string) float64 {
	// Series that share an upper bound (the same histogram in several
	// processes, or several label values) add up bucket by bucket.
	byLe := map[float64]float64{}
	for k, v := range s {
		if !strings.HasPrefix(k, family+"_bucket{") {
			continue
		}
		lbl := k[len(family)+len("_bucket"):]
		if !hasLabels(lbl, labels) {
			continue
		}
		i := strings.Index(lbl, `le="`)
		if i < 0 {
			continue
		}
		rest := lbl[i+4:]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			continue
		}
		le := math.Inf(1)
		if rest[:j] != "+Inf" {
			f, err := strconv.ParseFloat(rest[:j], 64)
			if err != nil {
				continue
			}
			le = f
		}
		byLe[le] += v
	}
	type bucket struct{ le, cum float64 }
	bs := make([]bucket, 0, len(byLe))
	for le, cum := range byLe {
		bs = append(bs, bucket{le, cum})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	total := bs[len(bs)-1].cum
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLe, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe // open-ended top bucket: its lower edge
			}
			if b.cum == prevCum {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(rank-prevCum)/(b.cum-prevCum)
		}
		prevLe, prevCum = b.le, b.cum
	}
	return prevLe
}
