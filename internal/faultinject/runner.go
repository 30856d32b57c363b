package faultinject

import "fmt"

// Scenario binds a cluster builder, a fault plan and a workload driver so
// the same experiment can be replayed across many seeds. Build must return
// a fresh target every call (its own engine) — seeds are only comparable
// when each run starts from an identical world.
type Scenario struct {
	Name string
	// Build constructs a fresh target for one run.
	Build func(seed int64) (Target, error)
	// Plan returns the fault plan for a seed. Defaults to RandomPlan with
	// default options when nil.
	Plan func(seed int64) Plan
	// Drive runs the workload against the target (the plan is already
	// installed) and returns the first invariant violation, if any.
	Drive func(tgt Target, in *Injector) error
}

// SeedResult is the outcome of one scenario run.
type SeedResult struct {
	Seed int64
	// Log is the executed-fault log — compare across replays of the same
	// seed to prove determinism.
	Log string
	// Err is the build failure or the Drive-reported invariant violation.
	Err error
}

// Run executes the scenario once for a seed.
func (s Scenario) Run(seed int64) SeedResult {
	res := SeedResult{Seed: seed}
	tgt, err := s.Build(seed)
	if err != nil {
		res.Err = fmt.Errorf("%s seed %d: build: %w", s.Name, seed, err)
		return res
	}
	plan := RandomPlan(seed, PlanOpts{})
	if s.Plan != nil {
		plan = s.Plan(seed)
	}
	in, err := New(tgt, plan)
	if err != nil {
		res.Err = fmt.Errorf("%s seed %d: plan: %w", s.Name, seed, err)
		return res
	}
	in.Install()
	if err := s.Drive(tgt, in); err != nil {
		res.Err = fmt.Errorf("%s seed %d: %w", s.Name, seed, err)
	}
	res.Log = in.LogString()
	return res
}
