package spec

import (
	"fmt"

	"github.com/chirplab/chirp/internal/trace"
	"github.com/chirplab/chirp/internal/workloads"
)

// Options configures Compile.
type Options struct {
	// Seed, when SeedSet, overrides the spec's own seed — master-seed
	// supremacy: the CLI -seed always wins over the document, and the
	// effective seed becomes part of the compiled spec's capture hash.
	Seed    uint64
	SeedSet bool
}

// Compiled is the result of compiling a spec: the materialised
// workloads plus the effective seed and content hash that identify
// them.
type Compiled struct {
	// Spec is the normalized copy the compilation used.
	Spec *Spec
	// Seed is the effective master seed after supremacy resolution.
	Seed uint64
	// Hash is the content hash of (spec, effective seed); every
	// compiled workload carries it into capture fingerprints.
	Hash string

	suite    []*workloads.Workload
	combined *workloads.Workload
	tenants  []*workloads.Workload
	all      []*workloads.Workload
}

// Compile materialises spec into runnable workloads. The input is not
// mutated; defaulting and validation run on a private copy, so Compile
// accepts both raw and already-normalized specs. Compilation is pure:
// the same (spec, options) pair always yields workloads whose traces
// are byte-identical.
func Compile(s *Spec, opts Options) (*Compiled, error) {
	cs, err := s.clone()
	if err != nil {
		return nil, err
	}
	if err := cs.Normalize(); err != nil {
		return nil, err
	}
	seed := cs.Seed
	if opts.SeedSet {
		seed = opts.Seed
	}
	hash, err := cs.hashWithSeed(seed)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Spec: cs, Seed: seed, Hash: hash}
	if cs.Suite != nil {
		suite, err := workloads.CompileSuite(
			workloads.SuiteSpec{Size: cs.Suite.Size, Categories: cs.Suite.Categories}, seed, hash)
		if err != nil {
			return nil, fmt.Errorf("spec %s: %w", cs.Name, err)
		}
		c.suite = suite
	}
	if len(cs.Clients) > 0 {
		plans := planClients(cs, seed)
		groups := groupByTenant(cs, plans)
		profile := "single-tenant"
		if len(groups) > 1 {
			profile = "multi-tenant"
		}
		var allTenants []workloads.TenantDesc
		for _, g := range groups {
			allTenants = append(allTenants, g.desc)
		}
		c.combined = compositeWorkload(cs.Name, cs, plans, seed, hash, profile, allTenants)
		if len(groups) > 1 {
			for _, g := range groups {
				name := cs.Name + "/" + g.desc.Tenant
				c.tenants = append(c.tenants,
					compositeWorkload(name, cs, g.plans, seed, hash, "tenant-view",
						[]workloads.TenantDesc{g.desc}))
			}
		}
	}
	c.all = append(c.all, c.suite...)
	if c.combined != nil {
		c.all = append(c.all, c.combined)
	}
	c.all = append(c.all, c.tenants...)
	return c, nil
}

// Suite returns the workloads of the spec's suite section (nil when
// the spec has none).
func (c *Compiled) Suite() []*workloads.Workload { return c.suite }

// SuiteN returns the first n suite workloads.
func (c *Compiled) SuiteN(n int) []*workloads.Workload {
	if n > len(c.suite) {
		n = len(c.suite)
	}
	return c.suite[:n]
}

// Combined returns the interleaved whole-population workload (nil when
// the spec has no clients).
func (c *Compiled) Combined() *workloads.Workload { return c.combined }

// Tenants returns the per-tenant views of the population — each the
// same clients, seeds, and programs as in the combined schedule, but
// scheduled in isolation, so tenant MPKI can be compared against the
// interleaved run. Empty unless the spec has more than one tenant.
func (c *Compiled) Tenants() []*workloads.Workload { return c.tenants }

// Workloads returns every runnable workload the spec compiles to:
// suite entries, then the combined population, then tenant views.
func (c *Compiled) Workloads() []*workloads.Workload { return c.all }

// ByName returns the named compiled workload, or nil.
func (c *Compiled) ByName(name string) *workloads.Workload {
	for _, w := range c.all {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// clientPlan is one client, compiled: its derived seed, lifecycle, a
// pure builder for its (rebased) program, and its description.
type clientPlan struct {
	client *Client
	seed   uint64
	life   lifecycle
	build  func() *workloads.Program
	desc   workloads.ClientDesc
}

// Rebase margins between consecutive clients' address spaces, in
// pages: generous enough that guard gaps never touch, small enough to
// keep the address space compact.
const (
	codeMargin = 64
	dataMargin = 1024
)

// planClients compiles every client of a normalized spec, laying each
// program into a disjoint slice of the shared address space so tenants
// never alias pages.
func planClients(s *Spec, master uint64) []clientPlan {
	plans := make([]clientPlan, len(s.Clients))
	var codeOff, dataOff uint64
	for i := range s.Clients {
		cl := &s.Clients[i]
		cseed := workloads.MixSeeds(master, workloads.HashString("client|"+cl.ID)+cl.SeedOffset)
		name := s.Name + "/" + cl.ID
		var raw func() *workloads.Program
		if cl.Template != "" {
			tmpl, _ := workloads.Template(cl.Template)
			raw = func() *workloads.Program { return tmpl(name, cseed) }
		} else {
			ps := cl.Program
			raw = func() *workloads.Program { return buildProgram(ps, name, cseed) }
		}
		co, do := codeOff, dataOff
		build := func() *workloads.Program {
			p := raw()
			p.Rebase(co, do)
			return p
		}
		proto := build()
		_, codeSpan, _, dataSpan := proto.Extents()
		codeOff += codeSpan + codeMargin
		dataOff += dataSpan + dataMargin
		var dataPages uint64
		for _, r := range proto.Regions {
			dataPages += r.Pages
		}
		plans[i] = clientPlan{
			client: cl,
			seed:   cseed,
			life:   compileLifecycle(cl.Lifecycle),
			build:  build,
			desc: workloads.ClientDesc{
				ID:            cl.ID,
				RateFraction:  cl.RateFraction,
				Template:      cl.Template,
				Lifecycle:     describeLifecycle(cl.Lifecycle),
				Seed:          cseed,
				Sites:         len(proto.Sites),
				Phases:        len(proto.Phases),
				CodePages:     codeSpan,
				DataPages:     dataPages,
				DataFootprint: workloads.FormatPages(dataPages),
			},
		}
	}
	return plans
}

// buildProgram lowers an explicit program spec through the Builder
// primitives. The spec references regions and kernels by name; lookup
// failures are impossible after validation.
func buildProgram(ps *Program, name string, seed uint64) *workloads.Program {
	b := workloads.NewBuilder(name, "custom", seed)
	regions := make([]*workloads.Region, len(ps.Regions))
	for i, rs := range ps.Regions {
		regions[i] = b.Region(rs.Pages, rs.HotPages)
	}
	kernels := make([]*workloads.Kernel, len(ps.Kernels))
	for i, ks := range ps.Kernels {
		kernels[i] = b.Kernel(ks.CodePages, ks.Loads, ks.Noise, ks.Store)
	}
	for _, ss := range ps.Sites {
		bv, _ := workloads.ParseBehavior(ss.Behavior)
		site := b.Site(kernels[kernelIndex(ps, ss.Kernel)], regions[regionIndex(ps, ss.Region)],
			bv, ss.PagesPerCall)
		if ss.LoadsPerPage > 0 {
			site.LoadsPerPage = ss.LoadsPerPage
		}
		if ss.SkipALU > 0 {
			site.SkipALU = ss.SkipALU
		}
		site.ZipfSkew = ss.ZipfSkew
		site.ChunkPages = ss.ChunkPages
		site.Passes = ss.Passes
		site.WindowDrift = ss.WindowDrift
		site.Stores = ss.Stores
		site.IndirectCall = ss.IndirectCall
	}
	if len(ps.Phases) == 0 {
		b.Phases(ps.CallsPerPhase, b.UniformPhase())
	} else {
		weights := make([][]uint32, len(ps.Phases))
		for i := range ps.Phases {
			weights[i] = ps.Phases[i].Weights
		}
		b.Phases(ps.CallsPerPhase, weights...)
	}
	p := b.Build()
	if ps.RunMin > 0 {
		p.RunMin = ps.RunMin
	}
	if ps.RunMax > 0 {
		p.RunMax = ps.RunMax
	}
	if ps.SkipScale > 0 {
		p.SkipScale = ps.SkipScale
	}
	p.Profile = "custom"
	return p
}

func kernelIndex(ps *Program, name string) int {
	for i := range ps.Kernels {
		if ps.Kernels[i].Name == name {
			return i
		}
	}
	return -1
}

func regionIndex(ps *Program, name string) int {
	for i := range ps.Regions {
		if ps.Regions[i].Name == name {
			return i
		}
	}
	return -1
}

// rateBase converts a rate fraction to the scheduler's parts-per-
// million base weight (never zero: validation admits tiny fractions).
func rateBase(rate float64) uint64 {
	base := uint64(rate*1e6 + 0.5)
	if base == 0 {
		base = 1
	}
	return base
}

// tenantGroup is the clients of one tenant, in spec order.
type tenantGroup struct {
	plans []clientPlan
	desc  workloads.TenantDesc
}

// groupByTenant splits plans by tenant, preserving first-appearance
// order.
func groupByTenant(s *Spec, plans []clientPlan) []tenantGroup {
	var groups []tenantGroup
	index := make(map[string]int, len(plans))
	for i := range plans {
		tn := plans[i].client.Tenant
		gi, ok := index[tn]
		if !ok {
			gi = len(groups)
			index[tn] = gi
			groups = append(groups, tenantGroup{desc: workloads.TenantDesc{Tenant: tn}})
		}
		groups[gi].plans = append(groups[gi].plans, plans[i])
		groups[gi].desc.Clients = append(groups[gi].desc.Clients, plans[i].desc)
	}
	return groups
}

// compositeWorkload wraps a set of client plans as one schedulable
// workload: a fresh tenantScheduler per Source call, seeded from the
// workload's name so the combined population and each tenant view get
// independent (but reproducible) arrival processes.
func compositeWorkload(name string, s *Spec, plans []clientPlan, effSeed uint64, hash, profile string, tenants []workloads.TenantDesc) *workloads.Workload {
	runMin, runMax := s.Interleave.RunMin, s.Interleave.RunMax
	schedSeed := workloads.MixSeeds(effSeed, workloads.HashString("scheduler|"+name))
	open := func() trace.Source {
		clients := make([]schedClient, len(plans))
		for i := range plans {
			clients[i] = schedClient{
				gen:  workloads.NewGenerator(plans[i].build()),
				base: rateBase(plans[i].client.RateFraction),
				life: plans[i].life,
			}
		}
		return newScheduler(clients, runMin, runMax, schedSeed)
	}
	desc := workloads.Description{
		Name:     name,
		Category: "mix",
		Profile:  profile,
		Seed:     effSeed,
		SpecHash: hash,
		Tenants:  tenants,
	}
	describe := func() workloads.Description { return desc }
	return workloads.NewSourceWorkload(name, "mix", hash, effSeed, profile, open, describe)
}
