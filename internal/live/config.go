package live

import (
	"fmt"
	"time"

	"radar/internal/ctrlplane"
	"radar/internal/protocol"
	"radar/internal/routing"
	"radar/internal/sim"
	"radar/internal/substrate"
	"radar/internal/topology"
)

// Config describes one live fleet. The simulation configuration is
// embedded whole — the same sim.Config drives both the simulator and the
// fleet, which is what lets the equivalence test hand one value to both
// sides — plus the live-only transport knobs.
type Config struct {
	// Sim is the run the fleet mirrors: topology, object universe,
	// protocol parameters, server model, request rates, intervals, policy,
	// redirector count, duration. A nil Sim.Topo selects the UUNET
	// backbone, like the simulator.
	Sim sim.Config

	// MaxInflightCreates caps concurrent CreateObj executions per node
	// (the buildbarn-style replication concurrency limit). Zero selects
	// DefaultMaxInflightCreates.
	MaxInflightCreates int

	// RPC tunes the control-plane client: per-attempt timeout, retry
	// budget, and backoff, reusing ctrlplane.Params (zero fields select
	// the ctrlplane defaults).
	RPC ctrlplane.Params

	// FreeRunning switches the fleet from driver-paced to self-scheduled
	// operation: nodes own wall-clock timers for their measurement,
	// placement, and census ticks, virtual time is wall time since node
	// start, and peer handlers answer busy (503, retried by the caller)
	// rather than block when a concurrent placement pass holds the node.
	// Verification shifts from sequence equality to invariants (package
	// live/check); driver-paced replay of the same Config is untouched.
	FreeRunning bool

	// FreeRun tunes the free-running timers; zero fields take defaults
	// derived from the simulation intervals.
	FreeRun FreeRun

	// RetryBudget arms the per-peer retry token bucket with this many
	// tokens (free-running mode defaults to DefaultRetryBudget). Zero
	// disables the budget — the driver-paced default, where retry cutoffs
	// would perturb the pinned schedule.
	RetryBudget int
}

// FreeRun groups the free-running mode's wall-clock timer periods. In
// free-running mode virtual time is wall time, so the defaults map the
// simulation's virtual intervals one-to-one onto real ones.
type FreeRun struct {
	// Measurement is the load-measurement interval (default:
	// Sim.Server.MeasurementInterval).
	Measurement time.Duration
	// Placement is the placement-pass interval (default:
	// Sim.PlacementInterval).
	Placement time.Duration
	// Census is the census/self-audit interval (default: Placement).
	Census time.Duration
	// Jitter is the fraction of each period by which ticks are randomly
	// advanced or delayed, in [0,1) (default DefaultFreeRunJitter), so a
	// fleet started in the same instant does not phase-lock its placement
	// passes.
	Jitter float64
}

// Free-running defaults.
const (
	DefaultRetryBudget   = 8
	DefaultFreeRunJitter = 0.1
)

// DefaultMaxInflightCreates is the per-node CreateObj concurrency limit
// when Config.MaxInflightCreates is zero.
const DefaultMaxInflightCreates = 4

// Normalized returns the configuration with every default resolved — the
// exact configuration a fleet, driver, or checker built from c will run
// with. Callers that need the resolved topology (to compute redirector
// locations, say) before constructing any of those should go through it.
func (c Config) Normalized() Config { return c.normalize() }

// normalize resolves defaults: the UUNET topology for a nil Topo, the
// ctrlplane RPC defaults, and the CreateObj concurrency default.
func (c Config) normalize() Config {
	if c.Sim.Topo == nil {
		c.Sim.Topo = substrate.UUNET().Topo
	}
	if c.MaxInflightCreates == 0 {
		c.MaxInflightCreates = DefaultMaxInflightCreates
	}
	c.RPC = c.RPC.WithDefaults()
	if c.FreeRunning {
		if c.FreeRun.Measurement == 0 {
			c.FreeRun.Measurement = c.Sim.Server.MeasurementInterval
		}
		if c.FreeRun.Placement == 0 {
			c.FreeRun.Placement = c.Sim.PlacementInterval
		}
		if c.FreeRun.Census == 0 {
			c.FreeRun.Census = c.FreeRun.Placement
		}
		if c.FreeRun.Jitter == 0 {
			c.FreeRun.Jitter = DefaultFreeRunJitter
		}
		if c.RetryBudget == 0 {
			c.RetryBudget = DefaultRetryBudget
		}
	}
	return c
}

// Validate rejects configurations the live fleet cannot run. Live mode
// deliberately supports the simulator's core surface — the paper's
// protocol over a real transport — and refuses the simulation-only
// subsystems (fault injection, storage stacks, consistency/updates,
// heterogeneous weights, alternate seeding modes): those model phenomena
// the simulator induces artificially, while a live fleet exhibits its own.
func (c Config) Validate() error {
	c = c.normalize()
	if err := c.Sim.Validate(); err != nil {
		return err
	}
	if c.MaxInflightCreates < 0 {
		return fmt.Errorf("live: negative MaxInflightCreates %d", c.MaxInflightCreates)
	}
	if err := c.RPC.Validate(); err != nil {
		return err
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("live: negative RetryBudget %d", c.RetryBudget)
	}
	if c.FreeRun.Measurement < 0 || c.FreeRun.Placement < 0 || c.FreeRun.Census < 0 {
		return fmt.Errorf("live: negative free-running interval")
	}
	if c.FreeRun.Jitter < 0 || c.FreeRun.Jitter >= 1 {
		return fmt.Errorf("live: free-running jitter %v outside [0,1)", c.FreeRun.Jitter)
	}
	switch {
	case c.Sim.Faults.Enabled() || c.Sim.Faults.HasMessageFaults() || len(c.Sim.Failures) > 0:
		return fmt.Errorf("live: fault injection is simulation-only (kill live nodes instead)")
	case !c.Sim.Store.IsDefault():
		return fmt.Errorf("live: replica-storage stacks are simulation-only")
	case c.Sim.Consistency != nil || c.Sim.Updates.RatePerSec > 0:
		return fmt.Errorf("live: consistency/update subsystem is simulation-only")
	case c.Sim.HostWeights != nil:
		return fmt.Errorf("live: host weights are simulation-only")
	case c.Sim.RedirectorAtHome || c.Sim.ReplicateEverywhere || c.Sim.InitialPlacement != nil:
		return fmt.Errorf("live: alternate seeding modes are simulation-only")
	case c.Sim.Net.Contention:
		return fmt.Errorf("live: link contention is simulation-only")
	}
	return nil
}

// RedirectorLocations is sim.RedirectorLocations, kept for callers of
// this package.
func RedirectorLocations(routes *routing.Table, k int) []topology.NodeID {
	return sim.RedirectorLocations(routes, k)
}

// eventKind maps an observer callback to its wire event kind.
func moveEvent(kind string, at int64, id int64, from, to int, mv protocol.MoveKind) Event {
	return Event{At: at, Kind: kind, Object: id, From: from, To: to, Move: mv.String()}
}
