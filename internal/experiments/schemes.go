package experiments

// The scheme registry: every defense configuration the experiment
// runners evaluate, keyed by wire name. The registry is what makes a
// grid cell wire-addressable — a distributed backend ships
// (Config, scheme name, app) instead of a partition closure, and the
// worker reconstructs the identical scheme from its own copy of the
// dataset (itself a pure function of the Config). Constructors build
// a fresh scheme per call; every scheduler with state (RA, Adaptive)
// is instantiated per cell inside schedulerScheme, so reconstruction
// on another process replays exactly the draws the serial engine
// would make. The registry is the only source of schemes, so every
// grid cell is wire-addressable.
//
// Some names are aliases: the paper's recommended scheduler is
// Table II's OR, Table V's I = 3 point and the policy ablation's
// paper-ranges row. An alias resolves to its canonical scheme, so the
// three share one scheme name and every cell memo evaluates their
// cells once.

import (
	"fmt"

	"trafficreshape/internal/defense"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// Packet-splitting parameters of §V-C's closing remark (runSplitting):
// fragment every packet above splitAt bytes, paying headerBytes per
// extra fragment.
const (
	splitAt     = 500
	headerBytes = 28
)

// mustOR builds an Orthogonal scheduler from statically valid ranges.
func mustOR(r reshape.Ranges) reshape.Scheduler {
	o, err := reshape.NewOrthogonal(r)
	if err != nil {
		panic(err)
	}
	return o
}

// schedulerScheme partitions with a fresh per-cell scheduler
// instance, so stateful schedulers (RR's counter, RA's stream,
// Adaptive's quantiles) never leak state across shards.
func schedulerScheme(name string, mk func(rng *stats.RNG) reshape.Scheduler) Scheme {
	return Scheme{
		Name: name,
		partition: func(sc *cellScratch, _ trace.App, tr *trace.Trace, rng *stats.RNG) []*trace.Trace {
			return sc.apply.Apply(mk(rng), tr)
		},
	}
}

// policyPoints lists the §III-C2 scheduling-policy design points in
// report order (runPolicyAblation's rows and metric indices).
var policyPoints = []string{
	"OR paper ranges (0,232],(232,1540],(1540,1576]",
	"OR equal thirds (0,525],(525,1050],(1050,1576]",
	"OR modulo i=size%3",
	"OR modulo i=size%5",
	"OR adaptive quantile ranges (epoch 500)",
}

// schemeRegistry maps every wire name to its constructor. Constructors
// take the dataset because some schemes (OR+morph) are defined
// relative to its test traffic; most ignore it, so the standard
// schemes can also be built with ds == nil.
var schemeRegistry = map[string]func(ds *Dataset) Scheme{
	// Original observes the flow unmodified under one address.
	"Original": func(*Dataset) Scheme {
		return Scheme{
			Name: "Original",
			partition: func(_ *cellScratch, _ trace.App, tr *trace.Trace, _ *stats.RNG) []*trace.Trace {
				return []*trace.Trace{tr}
			},
		}
	},
	"FH": func(*Dataset) Scheme {
		return schedulerScheme("FH", func(*stats.RNG) reshape.Scheduler { return reshape.PaperFH() })
	},
	"RA": func(*Dataset) Scheme {
		return schedulerScheme("RA", func(rng *stats.RNG) reshape.Scheduler { return reshape.NewRandomFrom(3, rng) })
	},
	"RR": func(*Dataset) Scheme {
		return schedulerScheme("RR", func(*stats.RNG) reshape.Scheduler { return reshape.NewRoundRobin(3) })
	},
	"OR": func(*Dataset) Scheme {
		return schedulerScheme("OR", func(*stats.RNG) reshape.Scheduler { return reshape.Recommended() })
	},
	"OR-I2": orInterfaces(2),
	"OR-I5": orInterfaces(5),
	"OR+split": func(*Dataset) Scheme {
		return Scheme{
			Name: "OR+split",
			partition: func(sc *cellScratch, app trace.App, tr *trace.Trace, _ *stats.RNG) []*trace.Trace {
				sc.split.Packets = sc.split.Packets[:0]
				fragmented := defense.AppendSplit(&sc.split, tr, splitAt, headerBytes)
				return sc.apply.Apply(reshape.Recommended(), fragmented)
			},
		}
	},
	"OR+morph": func(ds *Dataset) Scheme {
		chain := defense.PaperMorphChain()
		return Scheme{
			Name: "OR+morph",
			partition: func(sc *cellScratch, app trace.App, tr *trace.Trace, rng *stats.RNG) []*trace.Trace {
				parts := sc.apply.Apply(reshape.Recommended(), tr)
				target, ok := chain[app]
				if !ok {
					return parts // do./up. stay unmorphed, as in §V-C
				}
				// The seed is drawn before the model lookup, so the
				// cell's stream is the same on the (empty-target)
				// error path.
				seed := rng.Uint64()
				model, err := ds.MorphModel(target)
				if err != nil {
					return parts
				}
				// The sub-flows are copies in the cell's own scratch,
				// so they are morphed in place instead of cloned a
				// second time.
				m := model.Morpher(seed)
				for _, p := range parts {
					m.ApplyInPlace(p)
				}
				return parts
			},
		}
	},
	policyPoints[1]: func(*Dataset) Scheme {
		return schedulerScheme(policyPoints[1], func(*stats.RNG) reshape.Scheduler { return mustOR(reshape.EqualRanges(1576, 3)) })
	},
	policyPoints[2]: func(*Dataset) Scheme {
		return schedulerScheme(policyPoints[2], func(*stats.RNG) reshape.Scheduler { return reshape.NewModulo(3) })
	},
	policyPoints[3]: func(*Dataset) Scheme {
		return schedulerScheme(policyPoints[3], func(*stats.RNG) reshape.Scheduler { return reshape.NewModulo(5) })
	},
	policyPoints[4]: func(*Dataset) Scheme {
		return schedulerScheme(policyPoints[4], func(*stats.RNG) reshape.Scheduler { return reshape.NewAdaptive(3, 500) })
	},
}

// schemeAliases maps a name whose partition is another registered
// scheme's to that scheme: SelectRanges(3) and the policy ablation's
// paper ranges are both PaperRanges3, the ranges of Recommended. A
// cell's confusion matrices count its windows' (truth, prediction)
// pairs, and the windows depend on the partition alone, not on the
// addresses minted for its sub-flows, so an alias's cells are exactly
// its canonical scheme's. TestSchemeAliasesPartitionAlike holds each
// alias to its former definition.
var schemeAliases = map[string]string{
	"OR-I3":         "OR",
	policyPoints[0]: "OR",
}

// orInterfaces builds the Table V sweep point with I interfaces and
// the paper's per-I size ranges.
func orInterfaces(i int) func(*Dataset) Scheme {
	return func(*Dataset) Scheme {
		ranges, err := reshape.SelectRanges(i)
		if err != nil {
			panic(err)
		}
		or := mustOR(ranges)
		return schedulerScheme(fmt.Sprintf("OR-I%d", i), func(*stats.RNG) reshape.Scheduler { return or })
	}
}

// NamedScheme reconstructs a registered scheme, resolving an alias to
// its canonical scheme (whose Name is the canonical one). Distributed
// backends may evaluate its cells on another process by name, because
// the constructor depends only on the name and the dataset's
// Config-derived contents.
func NamedScheme(ds *Dataset, name string) (Scheme, error) {
	if canonical, ok := schemeAliases[name]; ok {
		name = canonical
	}
	ctor, ok := schemeRegistry[name]
	if !ok {
		return Scheme{}, fmt.Errorf("experiments: unknown scheme %q", name)
	}
	return ctor(ds), nil
}

// mustNamed is NamedScheme for the statically registered names the
// runners use.
func mustNamed(ds *Dataset, name string) Scheme {
	s, err := NamedScheme(ds, name)
	if err != nil {
		panic(err)
	}
	return s
}

// SchemeNames lists every registered scheme name, aliases included
// (unordered).
func SchemeNames() []string {
	names := make([]string, 0, len(schemeRegistry)+len(schemeAliases))
	for name := range schemeRegistry {
		names = append(names, name)
	}
	for name := range schemeAliases {
		names = append(names, name)
	}
	return names
}
