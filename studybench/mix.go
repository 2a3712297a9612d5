package main

import (
	"encoding/json"
	"math/rand/v2"
	"slices"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/service"
)

// Submission kinds of the service-resubmit mix.
const (
	kindExact     = "exact"     // an earlier spec of the same client, resubmitted unchanged
	kindOverlap   = "overlap"   // an earlier spec plus one new L2 size or L1 geometry
	kindNovel     = "novel"     // a spec no earlier submission of the client had
	kindMalformed = "malformed" // rejected at the door with 400
	kindDefect    = "defect"    // accepted, then fails at run time (a known defect)
)

// Submission is one entry of a client's seeded sequence.
type Submission struct {
	Kind string
	Spec service.StudySpec
}

// key identifies a spec for the oracle: its JSON encoding.
func (s Submission) key() string {
	b, _ := json.Marshal(s.Spec)
	return string(b)
}

// mixL1s gives each client its own L1 geometries, so the two clients
// never share a memo cell or a worker-resident trace. Which cells hit
// then depends only on each client's own sequence, never on how the
// two interleave in time.
var mixL1s = [2][]cache.Config{
	{{SizeBytes: 32 << 10, LineBytes: 32, Ways: 2}, {SizeBytes: 16 << 10, LineBytes: 32, Ways: 2}, {SizeBytes: 8 << 10, LineBytes: 32, Ways: 2}},
	{{SizeBytes: 32 << 10, LineBytes: 32, Ways: 4}, {SizeBytes: 64 << 10, LineBytes: 32, Ways: 2}, {SizeBytes: 16 << 10, LineBytes: 32, Ways: 4}},
}

var mixL2KB = []int{256, 512, 1024, 2048, 4096, 8192}

// malformedSpecs are rejected by validation at the door.
var malformedSpecs = []harness.ExperimentSpec{
	{Sweep: "geometry", L2KB: []int{0}},
	{Sweep: "geometry", Policies: []string{"mru"}},
	{Sweep: "histogram"},
	{Table: 9},
	{Sweep: "geometry", L1s: []cache.Config{{SizeBytes: 32 << 10, LineBytes: 24, Ways: 2}}},
}

// defectSpec passes validation and fails at run time: with the default
// L1 axis, validation never checks the L2 sizes, and 3072 KB gives a
// set count that is not a power of two.
var defectSpec = harness.ExperimentSpec{Sweep: "geometry", L2KB: []int{1024, 3072}}

// mixCounts fixes how many submissions of each kind a client makes out
// of n, so the shares, and error_rate with them, do not vary by seed.
// Novel specs are the costliest and there are more of them across both
// clients than the ten studies study_tail_s leaves beyond it, so the
// tail lands inside that cluster rather than on its edge.
func mixCounts(n int) map[string]int {
	c := map[string]int{
		kindDefect:    1,
		kindMalformed: 2,
		kindNovel:     max(2, n/5),
		kindOverlap:   max(2, n/10),
	}
	c[kindExact] = n - c[kindDefect] - c[kindMalformed] - c[kindNovel] - c[kindOverlap]
	return c
}

// buildMix returns each client's sequence of n submissions for the
// seed: exact resubmissions are most of it, then overlaps, then novel
// specs, then a fixed malformed share. The first submission is always
// novel, so every later exact or overlap has an earlier spec to draw
// on. The same seed always gives the same sequences.
func buildMix(seed int64, clients, n, frames int) [][]Submission {
	out := make([][]Submission, clients)
	for c := range out {
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(c)+1))
		counts := mixCounts(n)
		var kinds []string
		for _, k := range []string{kindExact, kindOverlap, kindNovel, kindMalformed, kindDefect} {
			for i := 0; i < counts[k]; i++ {
				kinds = append(kinds, k)
			}
		}
		// Draw one novel spec for the first slot, shuffle the rest.
		first := slices.Index(kinds, kindNovel)
		kinds = slices.Delete(kinds, first, first+1)
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		kinds = append([]string{kindNovel}, kinds...)

		l1s := mixL1s[c%len(mixL1s)]
		var history []harness.ExperimentSpec
		seen := map[string]bool{}
		malformed := rng.Perm(len(malformedSpecs))
		for _, k := range kinds {
			var e harness.ExperimentSpec
			switch k {
			case kindNovel:
				for try := 0; try < 32; try++ {
					e = novelSpec(rng, l1s)
					if !seen[specKey(e)] {
						break
					}
				}
			case kindOverlap:
				e = overlapSpec(rng, history[rng.IntN(len(history))], l1s)
			case kindExact:
				e = history[rng.IntN(len(history))]
			case kindMalformed:
				e = malformedSpecs[malformed[0]]
				malformed = append(malformed[1:], malformed[0])
			case kindDefect:
				e = defectSpec
			}
			if k == kindNovel || k == kindOverlap {
				history = append(history, e)
				seen[specKey(e)] = true
			}
			out[c] = append(out[c], Submission{Kind: k,
				Spec: service.StudySpec{Frames: frames, Experiments: []harness.ExperimentSpec{e}}})
		}
	}
	return out
}

func specKey(e harness.ExperimentSpec) string {
	b, _ := json.Marshal(e)
	return string(b)
}

// pickSizes draws k distinct L2 sizes, returned in axis order.
func pickSizes(rng *rand.Rand, k int) []int {
	var out []int
	for _, i := range rng.Perm(len(mixL2KB))[:k] {
		out = append(out, mixL2KB[i])
	}
	slices.Sort(out)
	return out
}

// novelSpec draws a geometry sweep (70%) or a policy sweep of one of the
// client's L1 geometries under LRU and one other policy, over three L2
// sizes. Every draw is one LRU row and one non-LRU row of three cells
// each, so a miss costs about the same whatever is drawn.
func novelSpec(rng *rand.Rand, l1s []cache.Config) harness.ExperimentSpec {
	var others []string
	for _, p := range cache.Policies() {
		if p != cache.PolicyLRU {
			others = append(others, string(p))
		}
	}
	sweep := "geometry"
	if rng.IntN(10) >= 7 {
		sweep = "policy"
	}
	return harness.ExperimentSpec{
		Sweep:    sweep,
		L1s:      []cache.Config{l1s[rng.IntN(len(l1s))]},
		Policies: []string{string(cache.PolicyLRU), others[rng.IntN(len(others))]},
		L2KB:     pickSizes(rng, 3),
	}
}

// overlapSpec extends an earlier spec by one L2 size it lacks, or, when
// it has every size, by one more L1 geometry of the client.
func overlapSpec(rng *rand.Rand, base harness.ExperimentSpec, l1s []cache.Config) harness.ExperimentSpec {
	e := base
	e.L1s = slices.Clone(base.L1s)
	e.L2KB = slices.Clone(base.L2KB)
	e.Policies = slices.Clone(base.Policies)
	var missing []int
	for _, kb := range mixL2KB {
		if !slices.Contains(e.L2KB, kb) {
			missing = append(missing, kb)
		}
	}
	if len(missing) > 0 {
		e.L2KB = append(e.L2KB, missing[rng.IntN(len(missing))])
		slices.Sort(e.L2KB)
		return e
	}
	for _, l1 := range l1s {
		if !slices.Contains(e.L1s, l1) {
			e.L1s = append(e.L1s, l1)
			return e
		}
	}
	return e
}
