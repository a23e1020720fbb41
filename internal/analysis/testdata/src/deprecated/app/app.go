// Package app exercises the no-deprecated rule from the caller's side:
// a direct call, a function-value reference the old grep gate could not
// see, and an allowed legacy call.
package app

import (
	workloads "github.com/chirplab/chirp/internal/analysis/testdata/src/deprecated/internal/workloads"
)

// Generate constructs a generator directly, outside the workloads
// packages' allow scope.
func Generate() *workloads.Generator {
	return workloads.NewGenerator() // want "NewGenerator is deprecated"
}

// Factory takes the constructor's value instead of calling it.
func Factory() func() *workloads.Generator {
	f := workloads.NewGenerator // want "NewGenerator is deprecated"
	return f
}

// Pinned documents why one legacy call remains.
func Pinned() *workloads.Generator {
	//chirp:allow no-deprecated fixture: golden-output comparison against a hand-built generator
	return workloads.NewGenerator()
}
