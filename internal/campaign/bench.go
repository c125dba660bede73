package campaign

// The aggregate summary: one machine-readable JSON per campaign directory,
// regenerated from the full results stream after every run (resumed runs
// therefore fold earlier records in). Groups are maps keyed by scheme and
// by family; encoding/json sorts map keys, so the file is deterministic
// for a deterministic results stream.

// BenchGroup aggregates the records sharing one key.
type BenchGroup struct {
	Cells        int `json:"cells"`
	OK           int `json:"ok"`
	Incompatible int `json:"incompatible"`
	Errors       int `json:"errors"`
	// MeanAcceptance averages the acceptance of ok estimate cells (legal
	// instances, honest labels); 1.0 is the one-sided completeness target.
	MeanAcceptance float64 `json:"meanAcceptance"`
	// WorstSoundness is the highest adversary acceptance any ok soundness
	// cell observed; small is good.
	WorstSoundness float64 `json:"worstSoundness"`
	MaxLabelBits   int     `json:"maxLabelBits"`
	MaxCertBits    int     `json:"maxCertBits"`

	estimates int // internal: ok estimate cells folded into MeanAcceptance
}

// Bench is the BENCH_campaign.json layout.
type Bench struct {
	Spec       string                `json:"spec"`
	Records    int                   `json:"records"`
	OK         int                   `json:"ok"`
	Incompat   int                   `json:"incompatible"`
	Errors     int                   `json:"errors"`
	BySchemes  map[string]BenchGroup `json:"bySchemes"`
	ByFamilies map[string]BenchGroup `json:"byFamilies"`
	ByVariants map[string]BenchGroup `json:"byVariants"`
}

func (g BenchGroup) fold(rec Record) BenchGroup {
	g.Cells++
	switch rec.Status {
	case StatusOK:
		g.OK++
	case StatusIncompatible:
		g.Incompatible++
	default:
		g.Errors++
	}
	if rec.Status == StatusOK && rec.Measure == MeasureEstimate {
		g.MeanAcceptance = (g.MeanAcceptance*float64(g.estimates) + rec.Acceptance) / float64(g.estimates+1)
		g.estimates++
	}
	if rec.Status == StatusOK && rec.Measure == MeasureSoundness {
		for _, a := range rec.Adversaries {
			if a.Acceptance > g.WorstSoundness {
				g.WorstSoundness = a.Acceptance
			}
		}
	}
	if rec.LabelBits > g.MaxLabelBits {
		g.MaxLabelBits = rec.LabelBits
	}
	if rec.CertBits > g.MaxCertBits {
		g.MaxCertBits = rec.CertBits
	}
	return g
}

// Aggregate folds records into a Bench summary.
func Aggregate(specName string, recs []Record) Bench {
	b := Bench{
		Spec:       specName,
		BySchemes:  map[string]BenchGroup{},
		ByFamilies: map[string]BenchGroup{},
		ByVariants: map[string]BenchGroup{},
	}
	for _, rec := range recs {
		b.Records++
		switch rec.Status {
		case StatusOK:
			b.OK++
		case StatusIncompatible:
			b.Incompat++
		default:
			b.Errors++
		}
		b.BySchemes[rec.Scheme] = b.BySchemes[rec.Scheme].fold(rec)
		b.ByFamilies[rec.Family] = b.ByFamilies[rec.Family].fold(rec)
		b.ByVariants[rec.Variant] = b.ByVariants[rec.Variant].fold(rec)
	}
	return b
}
