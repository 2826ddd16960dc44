package experiments

import (
	"fmt"
	"strings"

	"ndnprivacy/internal/core"
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/telemetry"
)

// Figure 4 is purely analytic: it evaluates the Theorem VI.2/VI.4 utility
// functions under matched privacy budgets.

// UtilitySeries is one curve of Figure 4(a).
type UtilitySeries struct {
	Label  string
	Values []float64 // Values[c-1] = u(c)
}

// Figure4aResult holds the panel for one k.
type Figure4aResult struct {
	K        uint64
	Delta    float64
	Epsilons []float64
	Uniform  UtilitySeries
	Expo     []UtilitySeries
	MaxC     uint64
}

// Figure4a computes utility versus request count for Uniform-Random-Cache
// and Exponential-Random-Cache at fixed δ and the given ε values (E6).
// The paper's panel: k ∈ {1, 5}, δ = 0.05, ε ∈ {0.03, 0.04, 0.05},
// c ∈ [1, 100].
func Figure4a(k uint64, delta float64, epsilons []float64, maxC uint64) (*Figure4aResult, error) {
	uniDist, err := core.NewUniformForPrivacy(k, delta)
	if err != nil {
		return nil, err
	}
	out := &Figure4aResult{
		K:        k,
		Delta:    delta,
		Epsilons: append([]float64(nil), epsilons...),
		MaxC:     maxC,
		Uniform: UtilitySeries{
			Label:  fmt.Sprintf("Uniform (K=%d)", uniDist.DomainSize()),
			Values: utilityCurve(uniDist, maxC),
		},
	}
	// Each ε series is one sweep cell. The cells are pure analytic
	// functions of their inputs — no randomness — so they run at the
	// engine's default parallelism and still assemble in grid order.
	cells := make([]sweep.Cell[UtilitySeries], len(epsilons))
	for i, eps := range epsilons {
		eps := eps
		cells[i] = sweep.Cell[UtilitySeries]{
			Labels: []string{"fig=4a", fmt.Sprintf("eps=%g", eps)},
			Run: func(_ int64, _ telemetry.Provider) (UtilitySeries, error) {
				expoDist, err := core.NewGeometricForPrivacy(k, eps, delta)
				if err != nil {
					return UtilitySeries{}, fmt.Errorf("ε=%g: %w", eps, err)
				}
				return UtilitySeries{
					Label:  fmt.Sprintf("ε=%g (Expo, %s)", eps, expoDist.Name()),
					Values: utilityCurve(expoDist, maxC),
				}, nil
			},
		}
	}
	series, err := sweep.Run(cells, sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("figure 4a: %w", err)
	}
	out.Expo = series
	return out, nil
}

// Render prints the utility table at selected request counts.
func (r *Figure4aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Figure 4(a) — utility vs privacy, k=%d, δ=%g ===\n", r.K, r.Delta)
	marks := sampleMarks(r.MaxC)
	fmt.Fprintf(&b, "%-34s", "scheme \\ c")
	for _, c := range marks {
		fmt.Fprintf(&b, "%8d", c)
	}
	b.WriteString("\n")
	writeRow := func(s UtilitySeries) {
		fmt.Fprintf(&b, "%-34s", s.Label)
		for _, c := range marks {
			fmt.Fprintf(&b, "%8.4f", s.Values[c-1])
		}
		b.WriteString("\n")
	}
	writeRow(r.Uniform)
	for _, s := range r.Expo {
		writeRow(s)
	}
	b.WriteString("(paper: exponential ≥ uniform at every c, gap up to ≈12%)\n")
	return b.String()
}

// Figure4bResult holds one panel of Figure 4(b): the pointwise utility
// difference (exponential − uniform) when ε = −ln(1−δ).
type Figure4bResult struct {
	K      uint64
	Deltas []float64
	Diffs  []UtilitySeries
	MaxC   uint64
}

// Figure4b computes the maximal utility difference between the schemes
// for each δ (E7). The paper's panel: k ∈ {1, 5}, δ ∈ {0.01, 0.03, 0.05}.
func Figure4b(k uint64, deltas []float64, maxC uint64) (*Figure4bResult, error) {
	out := &Figure4bResult{K: k, Deltas: append([]float64(nil), deltas...), MaxC: maxC}
	cells := make([]sweep.Cell[UtilitySeries], len(deltas))
	for i, delta := range deltas {
		delta := delta
		cells[i] = sweep.Cell[UtilitySeries]{
			Labels: []string{"fig=4b", fmt.Sprintf("delta=%g", delta)},
			Run: func(_ int64, _ telemetry.Provider) (UtilitySeries, error) {
				uniDist, err := core.NewUniformForPrivacy(k, delta)
				if err != nil {
					return UtilitySeries{}, err
				}
				eps, err := core.MaxEpsilonForDelta(delta)
				if err != nil {
					return UtilitySeries{}, err
				}
				expoDist, err := core.NewGeometricForPrivacy(k, eps, delta)
				if err != nil {
					return UtilitySeries{}, fmt.Errorf("δ=%g: %w", delta, err)
				}
				uni := utilityCurve(uniDist, maxC)
				expo := utilityCurve(expoDist, maxC)
				diff := make([]float64, maxC)
				for i := range diff {
					diff[i] = expo[i] - uni[i]
				}
				return UtilitySeries{
					Label:  fmt.Sprintf("δ=%g (ε=%.4f)", delta, eps),
					Values: diff,
				}, nil
			},
		}
	}
	series, err := sweep.Run(cells, sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("figure 4b: %w", err)
	}
	out.Diffs = series
	return out, nil
}

// MaxDifference returns the peak utility difference for series i.
func (r *Figure4bResult) MaxDifference(i int) float64 {
	peak := 0.0
	for _, v := range r.Diffs[i].Values {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Render prints the difference table.
func (r *Figure4bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Figure 4(b) — utility difference (expo − uniform), k=%d, ε=−ln(1−δ) ===\n", r.K)
	marks := sampleMarks(r.MaxC)
	fmt.Fprintf(&b, "%-24s", "δ \\ c")
	for _, c := range marks {
		fmt.Fprintf(&b, "%8d", c)
	}
	b.WriteString("    peak\n")
	for i, s := range r.Diffs {
		fmt.Fprintf(&b, "%-24s", s.Label)
		for _, c := range marks {
			fmt.Fprintf(&b, "%8.4f", s.Values[c-1])
		}
		fmt.Fprintf(&b, "%8.4f\n", r.MaxDifference(i))
	}
	b.WriteString("(paper: peak difference up to ≈0.12)\n")
	return b.String()
}

// BoundsResult is the Theorem VI.1/VI.3 guarantee and the utility of
// both Random-Cache schemes sized for one (k, ε, δ).
type BoundsResult struct {
	UniformK    uint64
	Uniform     core.PrivacyBound
	Expo        string
	Exponential core.PrivacyBound
	Rows        []BoundsRow
}

// BoundsRow is both schemes' utility at request count C.
type BoundsRow struct {
	C                    uint64
	Uniform, Exponential float64
}

// Bounds sizes Uniform-Random-Cache for (k, δ) and
// Exponential-Random-Cache for (k, ε, δ), and reports what each
// guarantees and its utility at a few request counts up to maxC.
func Bounds(k uint64, eps, delta float64, maxC uint64) (*BoundsResult, error) {
	uni, err := core.NewUniformForPrivacy(k, delta)
	if err != nil {
		return nil, err
	}
	expo, err := core.NewGeometricForPrivacy(k, eps, delta)
	if err != nil {
		return nil, err
	}
	out := &BoundsResult{
		UniformK:    uni.DomainSize(),
		Uniform:     core.UniformPrivacy(k, uni.DomainSize()),
		Expo:        expo.Name(),
		Exponential: core.ExponentialPrivacy(k, expo.Alpha(), expo.DomainSize()),
	}
	for _, c := range []uint64{1, 2, 5, 10, 20, 50, maxC} {
		if c <= maxC {
			out.Rows = append(out.Rows, BoundsRow{C: c, Uniform: core.Utility(uni, c), Exponential: core.Utility(expo, c)})
		}
	}
	return out, nil
}

// Render prints both guarantees and the utility table. It ends without
// a newline: the Reporter adds one.
func (r *BoundsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Uniform-Random-Cache with K=%d: %v\n", r.UniformK, r.Uniform)
	fmt.Fprintf(&b, "Exponential-Random-Cache %s: %v\n", r.Expo, r.Exponential)
	fmt.Fprintf(&b, "\n%8s  %18s  %18s", "c", "u(c) uniform", "u(c) exponential")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%8d  %18.4f  %18.4f", row.C, row.Uniform, row.Exponential)
	}
	return b.String()
}

func utilityCurve(dist core.KDistribution, maxC uint64) []float64 {
	out := make([]float64, maxC)
	for c := uint64(1); c <= maxC; c++ {
		out[c-1] = core.Utility(dist, c)
	}
	return out
}

func sampleMarks(maxC uint64) []uint64 {
	candidates := []uint64{1, 5, 10, 20, 40, 60, 80, 100}
	out := make([]uint64, 0, len(candidates))
	for _, c := range candidates {
		if c <= maxC {
			out = append(out, c)
		}
	}
	return out
}
