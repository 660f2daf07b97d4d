package main

import (
	"fmt"
	"strings"

	"kivati/internal/explore"
)

// expectations are the verdicts a correct program gives on the benchmark's
// inputs. Tests tamper with them to show that the checks can fail.
type expectations struct {
	// VanillaDiverges: every corpus bug's vanilla exploration must find at
	// least one schedule whose observables differ from the serial result
	// (true), or must find none (false).
	VanillaDiverges bool
	// PreventionDiverges is the same for prevention explorations. A correct
	// engine never lets a prevention schedule diverge.
	PreventionDiverges bool
}

var defaultExpectations = expectations{VanillaDiverges: true}

// diverges is whether an exploration in mode must find a diverging schedule
// (true) or must find none (false).
func (e expectations) diverges(mode explore.Mode) bool {
	if mode == explore.Vanilla {
		return e.VanillaDiverges
	}
	return e.PreventionDiverges
}

// fingerprint holds the deterministic counters of one operation: a VM
// run's instructions, ticks, kernel crossings and decisions, or a
// differential's schedules, divergences of each mode, ticks and decisions,
// summed over both modes. Repetitions of the same operation (same input,
// same seed) must reproduce it exactly.
type fingerprint [4]uint64

// checker counts operations and the ones that failed a correctness check.
type checker struct {
	want     expectations
	first    map[string]fingerprint
	ops      int
	failed   int
	failures []string
}

func newChecker(want expectations) *checker {
	return &checker{want: want, first: map[string]fingerprint{}}
}

// record counts one operation identified by key. It fails when err is set,
// when problems are reported, or when fp differs from the fingerprint an
// earlier repetition of key produced.
func (c *checker) record(key string, fp fingerprint, err error, problems ...string) {
	c.ops++
	if err != nil {
		problems = append(problems, err.Error())
	} else if old, ok := c.first[key]; !ok {
		c.first[key] = fp
	} else if old != fp {
		problems = append(problems, fmt.Sprintf("deterministic counters changed between repetitions: %v, first %v", fp, old))
	}
	if len(problems) > 0 {
		c.failed++
		c.failures = append(c.failures, key+": "+strings.Join(problems, "; "))
	}
}
