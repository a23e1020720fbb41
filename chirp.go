// Package chirp is a Go reproduction of "CHiRP: Control-Flow History
// Reuse Prediction" (Mirbagher-Ajorpaz, Pokam, Garza, Jiménez — MICRO
// 2020): a predictive replacement policy for second-level TLBs driven
// by control-flow history signatures, together with the complete
// simulation stack the paper's evaluation needs — a two-level TLB
// model with pluggable replacement policies (LRU, Random, SRRIP, SHiP,
// GHRP, CHiRP, and an offline Bélády OPT bound), a timing-approximate
// in-order pipeline with the paper's Table II memory hierarchy and
// branch unit, a 4-level radix page-table walker with paging-structure
// caches, an 870-workload synthetic suite standing in for the CVP-1
// traces, and the harness that regenerates every table and figure of
// the paper (see DESIGN.md and EXPERIMENTS.md).
//
// # Quick start
//
//	w := chirp.WorkloadByName("db-000")
//	res, err := chirp.CompareMPKI(w, []string{"lru", "chirp"}, 2_000_000)
//
// The root package is a facade: the exported types alias the internal
// implementation packages, so the full machinery is reachable through
// this import alone.
package chirp

import (
	"context"
	"fmt"

	"github.com/chirplab/chirp/internal/core"
	"github.com/chirplab/chirp/internal/pipeline"
	"github.com/chirplab/chirp/internal/policy"
	"github.com/chirplab/chirp/internal/sim"
	"github.com/chirplab/chirp/internal/tlb"
	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
	"github.com/chirplab/chirp/internal/workloads/spec"
)

// Trace model.
type (
	// Record is one committed instruction of a trace.
	Record = trace.Record
	// Class is an instruction class.
	Class = trace.Class
	// Source streams trace records deterministically.
	Source = trace.Source
)

// Instruction classes.
const (
	ClassALU            = trace.ClassALU
	ClassLoad           = trace.ClassLoad
	ClassStore          = trace.ClassStore
	ClassCondBranch     = trace.ClassCondBranch
	ClassUncondDirect   = trace.ClassUncondDirect
	ClassUncondIndirect = trace.ClassUncondIndirect
)

// TLB model.
type (
	// Policy is a TLB replacement policy; implement it to plug a custom
	// policy into the simulators (see examples/custompolicy).
	Policy = tlb.Policy
	// Access is one TLB lookup as presented to a Policy.
	Access = tlb.Access
	// TLBConfig is TLB geometry.
	TLBConfig = tlb.Config
	// TLB is a set-associative translation buffer.
	TLB = tlb.TLB
	// BranchObserver is implemented by policies that consume the branch
	// stream.
	BranchObserver = tlb.BranchObserver
	// Recency is the shared exact-LRU stack helper.
	Recency = tlb.Recency
)

// NewTLB builds a TLB with the given geometry and policy.
func NewTLB(cfg TLBConfig, p Policy) (*TLB, error) { return tlb.New(cfg, p) }

// NewRecency builds an LRU stack for sets × ways entries.
func NewRecency(sets, ways int) *Recency { return tlb.NewRecency(sets, ways) }

// CHiRP core.
type (
	// CHiRP is the paper's replacement policy.
	CHiRP = core.CHiRP
	// CHiRPConfig parameterises CHiRP (table size, histories, feature
	// and update-filter switches).
	CHiRPConfig = core.Config
	// Storage is the Table I hardware budget breakdown.
	Storage = core.Storage
)

// DefaultCHiRPConfig returns the paper's main configuration (1 KB
// prediction table, 64-bit histories, all features on).
func DefaultCHiRPConfig() CHiRPConfig { return core.DefaultConfig() }

// NewCHiRP builds a CHiRP policy.
func NewCHiRP(cfg CHiRPConfig) (*CHiRP, error) { return core.New(cfg) }

// CHiRPStorage computes the Table I budget for a TLB with entries
// entries.
func CHiRPStorage(cfg CHiRPConfig, entries int) Storage { return core.StorageFor(cfg, entries) }

// Baseline policies.

// NewLRU returns exact least-recently-used replacement.
func NewLRU() Policy { return policy.NewLRU() }

// NewRandom returns uniform random replacement.
func NewRandom(seed uint64) Policy { return policy.NewRandom(seed) }

// NewSRRIP returns 2-bit static re-reference interval prediction.
func NewSRRIP() Policy { return policy.NewSRRIP() }

// NewSHiP returns the paper's TLB-adapted signature-based hit
// predictor with an shctSize-entry table.
func NewSHiP(shctSize int) Policy { return policy.NewSHiP(shctSize) }

// NewGHRP returns the TLB-adapted global history reuse predictor.
func NewGHRP(tableSize int) Policy { return policy.NewGHRP(tableSize) }

// NewPolicy builds a registered policy by name; see PolicyNames.
func NewPolicy(name string) (Policy, error) { return sim.NewPolicy(name) }

// PolicyNames lists the registered policy names.
func PolicyNames() []string { return sim.PolicyNames() }

// PaperPolicies is the paper's Figure 7 comparison set in
// presentation order.
func PaperPolicies() []string { return append([]string(nil), sim.PaperPolicies...) }

// Workload suite.
type (
	// Workload is one member of the 870-workload synthetic suite.
	Workload = workloads.Workload
)

// SuiteSize is the number of workloads in the full suite (870, as in
// the paper).
const SuiteSize = workloads.SuiteSize

// Suite returns the full suite.
func Suite() []*Workload { return workloads.Suite() }

// SuiteN returns the first n workloads of the category-interleaved
// suite.
func SuiteN(n int) []*Workload { return workloads.SuiteN(n) }

// WorkloadByName returns the named workload, or nil.
func WorkloadByName(name string) *Workload { return workloads.ByName(name) }

// Declarative workload specs (internal/workloads/spec): versioned JSON
// documents describing tenant/client traffic populations, compiled
// deterministically into runnable workloads.
type (
	// WorkloadSpec is a parsed, validated workload specification.
	WorkloadSpec = spec.Spec
	// CompiledSpec holds a spec's compiled workloads plus the
	// effective master seed and content hash that identify them.
	CompiledSpec = spec.Compiled
)

// LoadWorkloadSpec resolves nameOrPath as a built-in registry spec
// ("default" is the 870-workload suite) or a spec file on disk.
func LoadWorkloadSpec(nameOrPath string) (*WorkloadSpec, error) { return spec.Resolve(nameOrPath) }

// CompileWorkloadSpec compiles a spec under its own document seed.
func CompileWorkloadSpec(s *WorkloadSpec) (*CompiledSpec, error) {
	return spec.Compile(s, spec.Options{})
}

// CompileWorkloadSpecSeeded compiles a spec under a master seed that
// overrides the document's (master-seed supremacy, like the CLI
// -seed): the same (seed, spec) pair always compiles to workloads
// with byte-identical traces.
func CompileWorkloadSpecSeeded(s *WorkloadSpec, seed uint64) (*CompiledSpec, error) {
	return spec.Compile(s, spec.Options{Seed: seed, SeedSet: true})
}

// Limit truncates a source after max committed instructions.
func Limit(src Source, max uint64) Source { return trace.NewLimit(src, max) }

// Results.
type (
	// MPKIResult is a fast TLB-only measurement.
	MPKIResult = sim.TLBOnlyResult
	// TimingResult is a full-pipeline measurement.
	TimingResult = pipeline.Result
)

// MeasureMPKI runs src through the Table II TLB hierarchy under p and
// returns post-warmup misses per kilo-instruction. instructions bounds
// the run; the first half warms the structures.
func MeasureMPKI(src Source, p Policy, instructions uint64) (MPKIResult, error) {
	return sim.RunTLBOnly(trace.NewLimit(src, instructions), p, sim.DefaultTLBOnlyConfig(instructions))
}

// MeasureTiming runs src through the full timing model under p with
// the given page-walk penalty and returns IPC and MPKI.
func MeasureTiming(src Source, p Policy, instructions, walkPenalty uint64) (TimingResult, error) {
	m, err := pipeline.New(pipeline.DefaultConfig(instructions, walkPenalty), p,
		func() tlb.Policy { return policy.NewLRU() })
	if err != nil {
		return TimingResult{}, err
	}
	return m.Run(trace.NewLimit(src, instructions))
}

// Comparison is one policy's result in a CompareMPKI run.
type Comparison struct {
	Policy       string
	MPKI         float64
	ReductionPct float64 // vs the first policy in the request
	Efficiency   float64
}

// CompareMPKI measures w under each named policy and reports MPKI
// relative to the first policy (conventionally "lru").
func CompareMPKI(w *Workload, policies []string, instructions uint64) ([]Comparison, error) {
	if w == nil {
		return nil, fmt.Errorf("chirp: nil workload")
	}
	factories, err := sim.Factories(policies)
	if err != nil {
		return nil, err
	}
	pf := make([]sim.PolicyFactory, len(factories))
	for i, f := range factories {
		pf[i] = f.New
	}
	// A nil cache runs the direct RunTLBOnly reference once per policy.
	rs, err := sim.RunMulti(context.Background(), sim.RunSpec{Workload: w, Config: sim.DefaultTLBOnlyConfig(instructions)}, pf)
	if err != nil {
		return nil, err
	}
	out := make([]Comparison, len(rs))
	for i, res := range rs {
		out[i] = Comparison{Policy: policies[i], MPKI: res.MPKI, Efficiency: res.Efficiency}
		if base := rs[0].MPKI; base > 0 {
			out[i].ReductionPct = (base - res.MPKI) / base * 100
		}
	}
	return out, nil
}
