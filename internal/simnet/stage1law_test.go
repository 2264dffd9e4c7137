package simnet

import (
	"reflect"
	"testing"

	"banyan/internal/faultinject"
	"banyan/internal/obs"
	"banyan/internal/stats"
	"banyan/internal/topology"
	"banyan/internal/traffic"
)

// Every Config field falls in exactly one class by its effect on
// Stage1Law, the one place that decides whether Theorem 1 describes
// stage 1. Each entry sets its field alone to a non-zero value.
var (
	// lawNeutral fields leave the stage-1 law unchanged: run length,
	// seeding, guards, instrumentation, and wiring that only permutes
	// which queue a uniform message joins.
	lawNeutral = map[string]func(*Config){
		"Stages":          func(c *Config) { c.Stages = 5 },
		"Cycles":          func(c *Config) { c.Cycles = 7 },
		"Warmup":          func(c *Config) { c.Warmup = 3 },
		"Seed":            func(c *Config) { c.Seed = 9 },
		"SyncDraws":       func(c *Config) { c.SyncDraws = true },
		"MaxRows":         func(c *Config) { c.MaxRows = 4 },
		"TrackStageWaits": func(c *Config) { c.TrackStageWaits = true },
		"TrackOccupancy":  func(c *Config) { c.TrackOccupancy = true },
		"AllowUnstable":   func(c *Config) { c.AllowUnstable = true },
		"MaxInFlight":     func(c *Config) { c.MaxInFlight = 10 },
		"DrainCycles":     func(c *Config) { c.DrainCycles = 10 },
		"Probe":           func(c *Config) { c.Probe = obs.NewSimProbe() },
		"WaitHists":       func(c *Config) { c.WaitHists = []*stats.Hist{{}} },
		"Fault":           func(c *Config) { c.Fault = &faultinject.RepFault{} },
		"Topology":        func(c *Config) { c.Topology = topology.Butterfly },
		"FailPolicy":      func(c *Config) { c.FailPolicy = "reroute" },
		"TrackSwitches":   func(c *Config) { c.TrackSwitches = true },
		"SatDepth":        func(c *Config) { c.SatDepth = 8 },
		"SwitchWaitHists": func(c *Config) { c.SwitchWaitHists = [][]*stats.Hist{{{}}} },
	}
	// lawInputs parameterize the stage-1 law: changing one changes it.
	lawInputs = map[string]func(*Config){
		"K":    func(c *Config) { c.K = 4 },
		"P":    func(c *Config) { c.P = 0.6 },
		"Bulk": func(c *Config) { c.Bulk = 2 },
		"Q":    func(c *Config) { c.Q = 0.3 },
		"Service": func(c *Config) {
			c.Service, _ = traffic.ConstService(2)
		},
	}
	// lawBreaking fields take the configuration outside Theorem 1.
	lawBreaking = map[string]func(*Config){
		"Burst":           func(c *Config) { c.Burst = &BurstParams{POnRate: 0.5, POffRate: 0.1} },
		"HotModule":       func(c *Config) { c.HotModule = 0.2 },
		"ResampleService": func(c *Config) { c.ResampleService = true },
		"BufferCap":       func(c *Config) { c.BufferCap = 2 },
		"StageBuffers":    func(c *Config) { c.StageBuffers = []int{0, 1} },
		"FailLinks":       func(c *Config) { c.FailLinks = []LinkFail{{Stage: 2, Row: 1}} },
	}
)

// TestStage1LawClassifiesEveryField walks Config by reflection, so a new
// field cannot reach the drift monitor or the stage-1 control variate
// without a decision on whether Theorem 1 still describes it.
func TestStage1LawClassifiesEveryField(t *testing.T) {
	base := Config{K: 2, Stages: 3, P: 0.4, Cycles: 100}
	arr0, svc0, err := base.Stage1Law()
	if err != nil {
		t.Fatalf("base configuration rejected: %v", err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name, n := typ.Field(i).Name, 0
		for _, class := range []map[string]func(*Config){lawNeutral, lawInputs, lawBreaking} {
			if _, ok := class[name]; ok {
				n++
			}
		}
		if n != 1 {
			t.Errorf("Config.%s is in %d Stage1Law classes, want exactly 1", name, n)
		}
	}

	// law sets one field on base, checks nothing else moved, and asks
	// Stage1Law whether Theorem 1 still holds and with which law.
	law := func(name string, set func(*Config)) (same bool, err error) {
		c := base
		set(&c)
		bv, cv := reflect.ValueOf(base), reflect.ValueOf(c)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i).Name
			if changed := !reflect.DeepEqual(bv.Field(i).Interface(), cv.Field(i).Interface()); changed != (f == name) {
				t.Fatalf("setting %s: field %s changed = %v", name, f, changed)
			}
		}
		arr, svc, err := c.Stage1Law()
		return reflect.DeepEqual(arr, arr0) && reflect.DeepEqual(svc, svc0), err
	}
	for name, set := range lawNeutral {
		if same, err := law(name, set); err != nil || !same {
			t.Errorf("neutral %s changed the stage-1 law (err %v)", name, err)
		}
	}
	for name, set := range lawInputs {
		if same, err := law(name, set); err != nil || same {
			t.Errorf("law input %s left the stage-1 law unchanged (err %v)", name, err)
		}
	}
	for name, set := range lawBreaking {
		if _, err := law(name, set); err == nil {
			t.Errorf("model-breaking %s left Theorem 1 in force", name)
		}
	}

	// All-infinite StageBuffers keep the graph engine in its committed,
	// stage-model-equivalent mode, so Theorem 1 still holds.
	inf := base
	inf.StageBuffers = []int{0, 0, 0}
	if _, _, err := inf.Stage1Law(); err != nil {
		t.Errorf("all-infinite StageBuffers rejected: %v", err)
	}
}
