package experiments

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// The claims below are EXPERIMENTS.md's table rows, asserted over the
// committed results/*.csv that the full run (`fedbench -all -csv
// results/`, 100 reps, seed 1) wrote. The shape tests in
// experiments_test.go check reduced runs; these check the numbers the
// repository publishes. A change that regenerates results/ must keep
// every row true, or change the row and this test with it.

// curve is one method's series in a committed CSV, in file order.
type curve struct {
	x, y, stderr, rmse []float64
}

// committed is one figure's committed CSV.
type committed struct {
	id      string
	methods []string
	curves  map[string]*curve
}

func loadCommitted(t *testing.T, id string) committed {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "results", "fig"+id+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("fig%s.csv: %v", id, err)
	}
	want := []string{"figure", "method", "x", "y", "stderr", "rmse", "nrmse", "bias", "reps"}
	if len(rows) < 2 || !slices.Equal(rows[0], want) {
		t.Fatalf("fig%s.csv: header %v, want %v and at least one row", id, rows[0], want)
	}
	r := committed{id: id, curves: map[string]*curve{}}
	for _, row := range rows[1:] {
		if row[0] != id {
			t.Fatalf("fig%s.csv: row of figure %q", id, row[0])
		}
		var v [4]float64
		for i, s := range row[2:6] {
			if v[i], err = strconv.ParseFloat(s, 64); err != nil {
				t.Fatalf("fig%s.csv: %v", id, err)
			}
		}
		c := r.curves[row[1]]
		if c == nil {
			c = &curve{}
			r.curves[row[1]] = c
			r.methods = append(r.methods, row[1])
		}
		c.x = append(c.x, v[0])
		c.y = append(c.y, v[1])
		c.stderr = append(c.stderr, v[2])
		c.rmse = append(c.rmse, v[3])
	}
	return r
}

func (r committed) curve(t *testing.T, method string) *curve {
	t.Helper()
	c := r.curves[method]
	if c == nil {
		t.Fatalf("fig%s.csv has no method %q (have %v)", r.id, method, r.methods)
	}
	return c
}

// xs is the sweep, read off the first method.
func (r committed) xs() []float64 { return r.curves[r.methods[0]].x }

// at is method's plotted value at x.
func (r committed) at(t *testing.T, method string, x float64) float64 {
	t.Helper()
	c := r.curve(t, method)
	for i, cx := range c.x {
		if math.Abs(cx-x) <= 1e-9*math.Max(1, math.Abs(x)) {
			return c.y[i]
		}
	}
	t.Fatalf("fig%s.csv: %s has no point at x=%v", r.id, method, x)
	return 0
}

// lowest is the smallest plotted value among methods at x.
func (r committed) lowest(t *testing.T, x float64, methods ...string) float64 {
	t.Helper()
	lo := math.Inf(1)
	for _, m := range methods {
		lo = math.Min(lo, r.at(t, m, x))
	}
	return lo
}

// others is every method of the figure except the named ones.
func (r committed) others(except ...string) []string {
	var out []string
	for _, m := range r.methods {
		if !slices.Contains(except, m) {
			out = append(out, m)
		}
	}
	return out
}

// growth is a series' last value over its first.
func growth(c *curve) float64 { return c.y[len(c.y)-1] / c.y[0] }

// spread is a set of values' largest over its smallest.
func spread(ys []float64) float64 { return slices.Max(ys) / slices.Min(ys) }

func falling(ys []float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] >= ys[i-1] {
			return false
		}
	}
	return true
}

const (
	dithering = "dithering"
	piecewise = "piecewise"
	weighted5 = "weighted(γ=0.5)"
	weighted1 = "weighted(γ=1)"
	adaptive5 = "adaptive(α=0.5)"
	adaptive1 = "adaptive(α=1)"
)

func TestCommittedResultsClaims(t *testing.T) {
	for _, c := range []struct {
		id    string
		check func(t *testing.T, r committed)
	}{
		{"1a", func(t *testing.T, r committed) {
			for _, m := range r.methods {
				if ys := r.curve(t, m).y; !falling(ys) {
					t.Errorf("%s: NRMSE does not fall monotonically with μ: %v", m, ys)
				}
			}
			for _, x := range r.xs() {
				if a, o := r.lowest(t, x, adaptive5, adaptive1), r.lowest(t, x, dithering, weighted5, weighted1); a >= o {
					t.Errorf("μ=%v: adaptive %v not lowest (one-round best %v)", x, a, o)
				}
				if w5, w1 := r.at(t, weighted5, x), r.at(t, weighted1, x); w5 >= w1 {
					t.Errorf("μ=%v: weighted γ=0.5 %v not below γ=1 %v", x, w5, w1)
				}
			}
		}},
		{"1b", func(t *testing.T, r committed) {
			for _, x := range r.xs() {
				a := r.at(t, "adaptive", x)
				if d := r.at(t, dithering, x); d < 250*a {
					t.Errorf("μ=%v: dithering %v not ≈300× adaptive %v", x, d, a)
				}
				if w5, w1 := r.at(t, weighted5, x), r.at(t, weighted1, x); w5 >= w1 {
					t.Errorf("μ=%v: weighted γ=0.5 %v not below γ=1 %v", x, w5, w1)
				}
				if o := r.lowest(t, x, r.others("adaptive")...); a >= o {
					t.Errorf("μ=%v: adaptive %v not best (others' best %v)", x, a, o)
				}
				if a < 0.01 || a > 0.035 {
					t.Errorf("μ=%v: adaptive NRMSE %v outside the 1–3.5%% band", x, a)
				}
			}
		}},
		{"1c", func(t *testing.T, r committed) {
			gd, g1, g5 := growth(r.curve(t, dithering)), growth(r.curve(t, weighted1)), growth(r.curve(t, weighted5))
			if gd < 1000 || g1 < 30 || g5 < 5 {
				t.Errorf("one-round growth b=11→24: dithering ×%.0f, γ=1 ×%.0f, γ=0.5 ×%.1f; want ×>1000, ×>30, ×>5", gd, g1, g5)
			}
			if !(g5 < g1 && g1 < gd) {
				t.Errorf("γ=0.5 not the least-growing one-round method: γ=0.5 ×%.1f, γ=1 ×%.0f, dithering ×%.0f", g5, g1, gd)
			}
			if a := r.curve(t, adaptive5); growth(a) > 1.5 || spread(a.y) > 1.5 {
				t.Errorf("adaptive α=0.5 not flat over depth: %v", a.y)
			}
			if ga := growth(r.curve(t, adaptive1)); ga >= g5 {
				t.Errorf("adaptive α=1 grows ×%.1f, not below γ=0.5's ×%.1f", ga, g5)
			}
			// Where the baseline wins: at b=11 dithering beats every
			// bit-pushing method, at b=12 both weighted ones but not the
			// adaptive ones.
			if d, o := r.at(t, dithering, 11), r.lowest(t, 11, r.others(dithering)...); d >= o {
				t.Errorf("b=11: dithering %v does not beat every bit-pushing method (best %v)", d, o)
			}
			d := r.at(t, dithering, 12)
			if w := r.lowest(t, 12, weighted5, weighted1); d >= w {
				t.Errorf("b=12: dithering %v does not beat both weighted methods (best %v)", d, w)
			}
			for _, m := range []string{adaptive5, adaptive1} {
				if a := r.at(t, m, 12); d <= a {
					t.Errorf("b=12: dithering %v beats %s (%v)", d, m, a)
				}
			}
		}},
		{"2a", func(t *testing.T, r committed) {
			for _, m := range r.methods {
				if ys := r.curve(t, m).y; !falling(ys) {
					t.Errorf("%s: NRMSE does not fall monotonically with n: %v", m, ys)
				}
			}
			// ×100 clients should cut the error ≈10× (n^(−1/2)).
			if drop := 1 / growth(r.curve(t, adaptive5)); drop < 7 || drop > 14 {
				t.Errorf("adaptive n=1K→100K drop ×%.1f, want ≈10", drop)
			}
			if y := r.at(t, adaptive5, 2000); y < 0.02 || y > 0.04 {
				t.Errorf("adaptive NRMSE at n=2K = %v, want ≈3%%", y)
			}
			if y := r.at(t, adaptive5, 10000); y > 0.015 {
				t.Errorf("adaptive NRMSE at n=10K = %v, want ≈1%%", y)
			}
		}},
		{"2b", func(t *testing.T, r committed) {
			a := r.curve(t, "adaptive")
			if !falling(a.y) {
				t.Errorf("adaptive NRMSE does not fall monotonically with n: %v", a.y)
			}
			if i := slices.Index(a.stderr, slices.Max(a.stderr)); a.x[i] > 2000 {
				t.Errorf("adaptive stderr largest at n=%v, not at small n: %v", a.x[i], a.stderr)
			}
			for i, x := range a.x {
				if d := r.at(t, dithering, x); d < 10*a.y[i] {
					t.Errorf("n=%v: dithering %v not ≥10× adaptive %v", x, d, a.y[i])
				}
			}
		}},
		{"2c", func(t *testing.T, r committed) {
			for _, x := range r.xs() {
				a, o := r.lowest(t, x, adaptive5, adaptive1), r.lowest(t, x, dithering, weighted5, weighted1)
				if a >= o {
					t.Errorf("b=%v: adaptive %v not best (one-round best %v)", x, a, o)
				}
				if x >= 10 && o < 1.8*r.at(t, adaptive5, x) {
					t.Errorf("b=%v: adaptive α=0.5 not ≥1.8× below every one-round method", x)
				}
				if x >= 16 && o < 4*r.at(t, adaptive5, x) {
					t.Errorf("b=%v: adaptive α=0.5 not ≥4× below every one-round method", x)
				}
			}
		}},
		{"3a", func(t *testing.T, r committed) {
			// Noise-free census mean RMSE at the same n, the best method.
			noiseFree := math.Inf(1)
			clean := loadCommitted(t, "2a")
			for _, m := range clean.methods {
				c := clean.curve(t, m)
				i := slices.Index(c.x, 10000)
				if i < 0 {
					t.Fatalf("fig2a.csv: %s has no point at n=10000", m)
				}
				noiseFree = math.Min(noiseFree, c.rmse[i])
			}
			wins := map[string]int{}
			for _, x := range r.xs() {
				var ys []float64
				for _, m := range r.methods {
					ys = append(ys, r.at(t, m, x))
				}
				if s := spread(ys); s > 1.6 {
					t.Errorf("ε=%v: methods spread ×%.2f, not clustered within ≈1.5×", x, s)
				}
				if lo := slices.Min(ys); lo < 5*noiseFree {
					t.Errorf("ε=%v: DP RMSE %v not ≥5× the noise-free %v", x, lo, noiseFree)
				}
				wins[r.methods[slices.Index(ys, slices.Min(ys))]]++
				if a := r.at(t, adaptive5, x); a > 1.01*slices.Min(ys) {
					t.Errorf("ε=%v: adaptive %v not within 1%% of the lowest %v", x, a, slices.Min(ys))
				}
			}
			// The ordering differs from the paper's: adaptive, not
			// weighted γ=1, leads the cluster.
			if wins[adaptive5] < len(r.xs())-1 || wins[weighted1] > 1 {
				t.Errorf("lowest method per ε: %v; want adaptive at all but one ε", wins)
			}
		}},
		{"3b", func(t *testing.T, r committed) {
			for _, x := range r.xs() {
				p, o := r.at(t, piecewise, x), r.lowest(t, x, r.others(piecewise)...)
				switch {
				case x < 3 && p <= o:
					t.Errorf("ε=%v: piecewise %v leads below ε=3 (others' best %v)", x, p, o)
				case x >= 3 && p >= o:
					t.Errorf("ε=%v: piecewise %v does not lead (others' best %v)", x, p, o)
				case x >= 4 && o < 1.25*p:
					t.Errorf("ε=%v: piecewise %v does not win clearly (others' best %v)", x, p, o)
				}
			}
		}},
		{"4a", func(t *testing.T, r committed) {
			for _, want := range []struct {
				m    string
				gain float64
			}{{"adaptive+squash", 10}, {"weighted(γ=1)+squash", 4}} {
				m, gain := want.m, want.gain
				c := r.curve(t, m)
				lo := slices.Min(c.y)
				if i := slices.Index(c.y, lo); i == 0 || i == len(c.y)-1 {
					t.Errorf("%s: best threshold %v is at the sweep's edge, no U-shape", m, c.x[i])
				}
				if c.y[0] < gain*lo {
					t.Errorf("%s: unsquashed %v not ≥%v× the best %v", m, c.y[0], gain, lo)
				}
				if y := r.at(t, m, 5); y < 2*lo {
					t.Errorf("%s: multiple 5 (%v) does not degrade from the best %v", m, y, lo)
				}
			}
		}},
		{"4b", func(t *testing.T, r committed) {
			c := r.curve(t, "noisy bit mean")
			negative := false
			for i, bit := range c.x {
				y := c.y[i]
				switch {
				case bit <= 8 && (y < 0.45 || y > 0.65):
					t.Errorf("bit %v mean %v, want ≈0.5", bit, y)
				case bit == 9 && y < 0.95:
					t.Errorf("bit 9 mean %v, want ≈1", y)
				case bit >= 10 && math.Abs(y) > 0.015:
					t.Errorf("bit %v mean %v, want ≈0", bit, y)
				}
				negative = negative || y < 0
			}
			if !negative {
				t.Error("no negative noisy bit mean")
			}
		}},
		{"4c", func(t *testing.T, r committed) {
			const squash = "adaptive(α=0.5)+squash"
			if s := r.curve(t, squash); spread(s.y) > 3 {
				t.Errorf("adaptive+squash not flat over depth: %v", s.y)
			}
			for _, m := range r.others(squash) {
				if g := growth(r.curve(t, m)); g < 4000 {
					t.Errorf("%s grows ×%.0f over b=11→24, want ×>4000", m, g)
				}
			}
			for _, x := range r.xs() {
				if s, o := r.at(t, squash, x), r.lowest(t, x, r.others(squash)...); x >= 12 && s >= o {
					t.Errorf("b=%v: adaptive+squash %v not lowest (others' best %v)", x, s, o)
				}
			}
		}},
		{"tdp", func(t *testing.T, r committed) {
			for _, x := range r.xs() {
				if l, b := r.at(t, "laplace", x), r.lowest(t, x, piecewise, weighted1, adaptive5); l < 1.5*b {
					t.Errorf("ε=%v: Laplace %v not ≥1.5× the best plotted method %v", x, l, b)
				}
				d, p := r.at(t, "duchi", x), r.at(t, piecewise, x)
				if x <= 1 && math.Abs(d/p-1) > 0.05 {
					t.Errorf("ε=%v: Duchi %v not tied with piecewise %v", x, d, p)
				}
				if x >= 4 && d < 1.5*p {
					t.Errorf("ε=%v: Duchi %v not ≥1.5× piecewise %v", x, d, p)
				}
			}
		}},
		{"pois", func(t *testing.T, r committed) {
			for _, x := range r.xs() {
				if l, c := r.at(t, "bitpush-local", x), r.at(t, "bitpush-central", x); x > 0 && c >= l {
					t.Errorf("byzantine %v: central %v not below local %v", x, c, l)
				}
			}
			if f := r.at(t, "bitpush-local", 0.1) / r.at(t, "bitpush-central", 0.1); f < 2.5 || f > 3.5 {
				t.Errorf("byzantine 10%%: central reduces error ×%.2f, want ≈2.8 (≤ the 3.4 prediction)", f)
			}
		}},
		{"cache", func(t *testing.T, r committed) {
			for _, x := range r.xs() {
				if f := r.at(t, adaptive5+"-nocache", x) / r.at(t, adaptive5, x); f < 1.3 || f > 1.6 {
					t.Errorf("n=%v: no-cache / cached = %.3f, want ≈1.45", x, f)
				}
			}
		}},
		{"bsend", func(t *testing.T, r committed) {
			c := r.curve(t, weighted1)
			if !falling(c.y) {
				t.Errorf("NRMSE does not fall with b_send: %v", c.y)
			}
			if f := 1 / growth(c); f < 2.5 || f > 4 {
				t.Errorf("b_send 1→8 cuts NRMSE ×%.2f, want ≈√8", f)
			}
		}},
		{"delta", func(t *testing.T, r committed) {
			c := r.curve(t, adaptive5)
			var basin []float64
			for i, x := range c.x {
				if x >= 0.2 && x <= 0.7 {
					basin = append(basin, c.y[i])
				}
			}
			if s := spread(basin); s > 1.25 {
				t.Errorf("δ∈[0.2,0.7] spreads ×%.2f, not a shallow basin", s)
			}
			if y := r.at(t, adaptive5, 1.0/3); y > 1.05*slices.Min(basin) {
				t.Errorf("δ=1/3 NRMSE %v not within 5%% of the basin floor %v", y, slices.Min(basin))
			}
			for _, x := range []float64{0.1, 0.9} {
				if y := r.at(t, adaptive5, x); y <= slices.Max(basin) {
					t.Errorf("δ=%v NRMSE %v does not degrade past the basin's %v", x, y, slices.Max(basin))
				}
			}
		}},
		{"gamma", func(t *testing.T, r committed) {
			w, a := r.curve(t, "weighted"), r.curve(t, adaptive5)
			if g := growth(w); g < 10 {
				t.Errorf("one-round error grows ×%.1f over γ=0→1.5, want ×>10", g)
			}
			if s := spread(a.y); s > 2.5 {
				t.Errorf("adaptive spreads ×%.2f over γ, not nearly oblivious", s)
			}
			for i, x := range w.x {
				if i > 0 && w.y[i] <= w.y[i-1] {
					t.Errorf("γ=%v: one-round error %v does not grow with γ", x, w.y[i])
				}
				if a.y[i] >= w.y[i] {
					t.Errorf("γ=%v: adaptive %v not below one-round %v", x, a.y[i], w.y[i])
				}
			}
		}},
		{"stdp", func(t *testing.T, r committed) {
			const st = "sample+threshold(γ=0.8,τ=13)"
			if f := r.at(t, st, 50000) / r.at(t, "no-noise", 50000); f < 1 || f > 1.25 {
				t.Errorf("n=50K: sample+threshold costs ×%.3f, want ≈√(1/γ) = 1.12", f)
			}
			if f := r.at(t, st, 2000) / r.at(t, "no-noise", 2000); f < 1.8 {
				t.Errorf("n=2K: sample+threshold costs ×%.2f, want ≈2", f)
			}
			for _, x := range r.xs() {
				if f := r.at(t, "bernoulli-noise", x) / r.at(t, "no-noise", x); f > 1.35 {
					t.Errorf("n=%v: Bernoulli noise costs ×%.2f, not comparable", x, f)
				}
			}
		}},
	} {
		t.Run(c.id, func(t *testing.T) { c.check(t, loadCommitted(t, c.id)) })
	}
}
