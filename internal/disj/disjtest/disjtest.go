// Package disjtest holds shared test-only generators for DISJ instances.
//
// It exists to fix an idiom smell: disj's in-package _test file used to
// export GenerateFromMuNOrSmallK, which leaks a test helper into every
// in-package test build but is invisible to other packages' tests. As a
// proper helper package it is importable by any external test without
// duplication, and it never ships in production builds because only
// _test files import it.
package disjtest

import (
	"broadcastic/internal/disj"
	"broadcastic/internal/rng"
)

// GenerateFromMuNOrSmallK samples a μ^n instance, falling back to
// GenerateDisjoint for k = 1 where μ^n is undefined.
func GenerateFromMuNOrSmallK(src *rng.Source, n, k int) (*disj.Instance, error) {
	if k >= 2 {
		return disj.GenerateFromMuN(src, n, k)
	}
	return disj.GenerateDisjoint(src, n, k, 0.5)
}
