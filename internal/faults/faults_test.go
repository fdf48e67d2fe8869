package faults

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/simt"
)

const (
	testSeed    = 7
	testDevices = 4
	testWorkers = 4
)

// layers is a fault plan built directly with the layers' builder APIs:
// what Parse must produce, stream for stream.
type layers struct {
	devices map[int]*simt.FaultInjector
	cluster *cluster.FaultInjector
	crash   *checkpoint.CrashPlan
}

// dev builds device n's injector the way Parse seeds it.
func dev(n int) *simt.FaultInjector { return simt.NewFaultInjector(testSeed + int64(n)) }

// flips attaches device n's flip injector the way Parse seeds it.
func flips(inj *simt.FaultInjector, n int) *simt.MemFaultInjector {
	inj.Mem = simt.NewMemFaultInjector(testSeed + int64(n) + 0x5DC)
	return inj.Mem
}

// workerPlans builds the cluster injector with one plan per worker.
func workerPlans(plans map[int]func(p *cluster.FaultPlan)) *cluster.FaultInjector {
	fi := cluster.NewFaultInjector(testSeed)
	for w, set := range plans {
		p := cluster.NewFaultPlan()
		set(p)
		fi.Plan(w, p)
	}
	return fi
}

// accepted lists valid specs with the plan each must equal. The first
// groups respell the cases of the per-layer parsers this package
// replaced (simt "0:…", cluster "1:…"/"kill-coordinator@N", checkpoint
// "N[:window]"); the rest are the spellings the smokes and tests use.
var accepted = []struct {
	spec string
	want func() layers
}{
	{"dev0:p=0.2;dev1:at=1,hang=3;dev2:dead", func() layers {
		return layers{devices: map[int]*simt.FaultInjector{
			0: dev(0).FailProb(0.2),
			1: dev(1).FailAt(1, simt.FaultLaunch).FailAt(3, simt.FaultHang),
			2: dev(2).LoseFrom(0),
		}}
	}},
	{"dev3:dead=5", func() layers {
		return layers{devices: map[int]*simt.FaultInjector{3: dev(3).LoseFrom(5)}}
	}},
	{"dev0:flip@p=1e-6;dev1:flip@shared=0.01,flip@launch=7;dev2:p=0.1", func() layers {
		d0, d1 := dev(0), dev(1)
		flips(d0, 0).FlipProb(1e-6)
		flips(d1, 1).FlipShared(0.01).FlipAt(7)
		return layers{devices: map[int]*simt.FaultInjector{0: d0, 1: d1, 2: dev(2).FailProb(0.1)}}
	}},
	{"dev3:dead", func() layers {
		return layers{devices: map[int]*simt.FaultInjector{3: dev(3).LoseFrom(0)}}
	}},
	{"w1:kill=2,refuse=3,stall=4@250ms,hello=bad;w2:torn=0,killp=0.5", func() layers {
		return layers{cluster: workerPlans(map[int]func(p *cluster.FaultPlan){
			1: func(p *cluster.FaultPlan) {
				p.KillAtBatch, p.RefuseConnects, p.StallAtBatch, p.StallFor, p.CorruptHello = 2, 3, 4, 250*time.Millisecond, true
			},
			2: func(p *cluster.FaultPlan) { p.TornAtBatch, p.KillProb = 0, 0.5 },
		})}
	}},
	{"coord:kill=2", func() layers {
		fi := cluster.NewFaultInjector(testSeed)
		fi.SetCoordinatorKill(2)
		return layers{cluster: fi}
	}},
	{"w0:kill=1;coord:kill=4", func() layers {
		fi := workerPlans(map[int]func(p *cluster.FaultPlan){0: func(p *cluster.FaultPlan) { p.KillAtBatch = 1 }})
		fi.SetCoordinatorKill(4)
		return layers{cluster: fi}
	}},
	{"journal:crash=3", func() layers { return layers{crash: checkpoint.CrashAfter(3, checkpoint.WindowAfterSync)} }},
	{"journal:crash=0@before-append", func() layers {
		return layers{crash: checkpoint.CrashAfter(0, checkpoint.WindowBeforeAppend)}
	}},
	{"journal:crash=7@after-append", func() layers {
		return layers{crash: checkpoint.CrashAfter(7, checkpoint.WindowAfterAppend)}
	}},
	{"journal:crash=2@after-sync", func() layers { return layers{crash: checkpoint.CrashAfter(2, checkpoint.WindowAfterSync)} }},
	// Repeated clauses for one worker merge, as device clauses do.
	{"w0:kill=1;w0:refuse=3", func() layers {
		return layers{cluster: workerPlans(map[int]func(p *cluster.FaultPlan){
			0: func(p *cluster.FaultPlan) { p.KillAtBatch, p.RefuseConnects = 1, 3 },
		})}
	}},
	{"dev0:at=0,at=2;dev1:at=0;dev2:dead", func() layers {
		return layers{devices: map[int]*simt.FaultInjector{
			0: dev(0).FailAt(0, simt.FaultLaunch).FailAt(2, simt.FaultLaunch),
			1: dev(1).FailAt(0, simt.FaultLaunch),
			2: dev(2).LoseFrom(0),
		}}
	}},
	{"dev0:flip@launch=0,flip@launch=3", func() layers {
		d0 := dev(0)
		flips(d0, 0).FlipAt(0).FlipAt(3)
		return layers{devices: map[int]*simt.FaultInjector{0: d0}}
	}},
	{"w0:kill=0,dead=1", func() layers {
		return layers{cluster: workerPlans(map[int]func(p *cluster.FaultPlan){
			0: func(p *cluster.FaultPlan) { p.KillAtBatch, p.StayDead = 0, true },
		})}
	}},
	{"w0:killp=0.4;w1:refuse=999;w2:stall=1@2s;coord:kill=3;journal:crash=3@after-append", func() layers {
		fi := workerPlans(map[int]func(p *cluster.FaultPlan){
			0: func(p *cluster.FaultPlan) { p.KillProb = 0.4 },
			1: func(p *cluster.FaultPlan) { p.RefuseConnects = 999 },
			2: func(p *cluster.FaultPlan) { p.StallAtBatch, p.StallFor = 1, 2*time.Second },
		})
		fi.SetCoordinatorKill(3)
		return layers{cluster: fi, crash: checkpoint.CrashAfter(3, checkpoint.WindowAfterAppend)}
	}},
}

// rejected lists invalid specs, grouped by where each case comes from.
var rejected = []string{
	// simt.ParseFaults, respelled.
	"", ";;;", "p=0.5", "devx:p=0.5", "dev0:p=2", "dev0:at=x", "dev0:frob=1", "dev0:at", "dev-1:dead",
	"dev0:flip", "dev0:flip@p", "dev0:flip@p=2", "dev0:flip@p=x", "dev0:flip@shared=-1",
	"dev0:flip@launch", "dev0:flip@launch=-1", "dev0:flip@launch=x", "dev0:flip@global=0.1",
	"dev4:flip@p=0.5", "dev5:dead",
	// cluster.ParseFaults, respelled.
	"nocolon", "wx:kill=1", "w0:kill", "w0:kill=abc", "w0:stall=1", "w0:hello=good", "w0:bogus=1",
	"coord:kill=", "coord:kill=-1", "coord:kill=x",
	// checkpoint.ParseCrash, respelled.
	"journal:crash=", "journal:crash=x", "journal:crash=-1", "journal:crash=3@mid-append", "journal:crash=3@",
	// Accepted by the cluster parser: out-of-range values and indices.
	"w0:killp=1.5", "w0:kill=-3", "w0:refuse=-1", "w0:stall=0@-1s", "w7:kill=0",
	// Accepted by the simt parser: a NaN probability.
	"dev0:p=NaN", "dev0:flip@p=NaN", "w0:killp=NaN",
	// Scopes and values the one grammar refuses.
	"w0:stall=0@0s", "w0:stall=x@1s", "w4:kill=0", "coord3:kill=1", "journal0:crash=1", "dev:dead",
	"w:kill=1", "gpu0:dead", "dev0:dead=", "coord:crash=1", "journal:kill=1", "dev0:at=1,",
	"w0:dead=2", "dev0:dead;w0:hello=bad,refuse=x",
}

func TestParseAcceptsAndMatchesLayerBuilders(t *testing.T) {
	for _, tc := range accepted {
		got, err := Parse(tc.spec, testSeed, testDevices, testWorkers)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		want := tc.want()
		if len(got.Devices) != len(want.devices) {
			t.Errorf("Parse(%q): %d device injectors, want %d", tc.spec, len(got.Devices), len(want.devices))
		}
		for n, inj := range want.devices {
			if g, w := deviceTrace(got.Devices[n], 12), deviceTrace(inj, 12); !reflect.DeepEqual(g, w) {
				t.Errorf("Parse(%q) device %d:\n got  %q\n want %q", tc.spec, n, g, w)
			}
		}
		if (got.Cluster == nil) != (want.cluster == nil) {
			t.Errorf("Parse(%q): cluster injector %v, want %v", tc.spec, got.Cluster != nil, want.cluster != nil)
		} else if g, w := clusterTrace(got.Cluster, testWorkers), clusterTrace(want.cluster, testWorkers); !reflect.DeepEqual(g, w) {
			t.Errorf("Parse(%q) cluster schedule:\n got  %q\n want %q", tc.spec, g, w)
		}
		if !reflect.DeepEqual(got.Crash, want.crash) {
			t.Errorf("Parse(%q) crash = %+v, want %+v", tc.spec, got.Crash, want.crash)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range rejected {
		if _, err := Parse(spec, testSeed, testDevices, testWorkers); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

// The merged worker plan keeps both faults: three refused dials, then
// a kill at batch frame 1.
func TestParseMergesWorkerClauses(t *testing.T) {
	plan, err := Parse("w0:kill=1;w0:refuse=3", testSeed, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"w0 refuse-connect #0", "w0 refuse-connect #1", "w0 refuse-connect #2", "w0 kill batch #1"}
	if got := clusterTrace(plan.Cluster, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule = %q, want %q", got, want)
	}
}

func FuzzParseFaults(f *testing.F) {
	for _, tc := range accepted {
		f.Add(tc.spec, int64(testSeed), testDevices, testWorkers)
	}
	for _, spec := range rejected {
		f.Add(spec, int64(1), 2, 2)
	}
	for _, spec := range []string{
		// The CI smokes.
		"dev0:dead;dev1:dead;dev2:dead;dev3:dead", "dev0:dead;dev1:dead",
		// Package tests and the hmmbench chaos/sdc sweeps.
		"dev0:p=0.3;dev1:at=1,hang=3;dev2:dead", "dev0:at=0,at=2;dev1:at=1;dev2:dead", "dev0:at=0,at=2;dev1:at=1",
		"dev0:flip@p=0.05", "dev0:flip@launch=0", "dev0:flip@p=0.05,flip@launch=0", "dev0:at=0,at=2;dev1:dead",
		"dev0:p=0.3;dev1:p=0.3", "dev2:dead=2", "dev0:p=0.3;dev1:p=0.3;dev2:dead", "dev0:flip@p=5e-2",
		"dev0:flip@shared=1e-5", "w0:kill=1,dead=1;w1:torn=0,dead=1", "w0:kill=1,dead=1",
		"w0:refuse=999;w1:refuse=999", "coord:kill=3", "journal:crash=3", "w0:hello=bad", "w0:killp=0.4",
		"w0:torn=0,dead=1", "w1:refuse=999",
	} {
		f.Add(spec, int64(testSeed), testDevices, testWorkers)
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64, devices, workers int) {
		devices, workers = devices&7, workers&7
		plan, err := Parse(spec, seed, devices, workers)
		if err != nil {
			return
		}
		if len(plan.Devices) == 0 && plan.Cluster == nil && plan.Crash == nil {
			t.Fatalf("Parse(%q) accepted a plan with no faults", spec)
		}
		for n := range plan.Devices {
			if n < 0 || n >= devices {
				t.Fatalf("Parse(%q) accepted device %d of %d", spec, n, devices)
			}
		}
		for n := range plan.workers {
			if n < 0 || n >= workers {
				t.Fatalf("Parse(%q) accepted worker %d of %d", spec, n, workers)
			}
		}
		again, err := Parse(spec, seed, devices, workers)
		if err != nil {
			t.Fatalf("Parse(%q) accepted once, then rejected: %v", spec, err)
		}
		if a, b := clusterTrace(plan.Cluster, workers), clusterTrace(again.Cluster, workers); !reflect.DeepEqual(a, b) {
			t.Fatalf("Parse(%q, %d) gave two cluster schedules:\n%q\n%q", spec, seed, a, b)
		}
	})
}

// deviceTrace launches a trivial kernel n times on a fresh GTX 580
// under inj and records, per launch, the fault it raised, the readback
// flips of an 8-word result and the running flip count.
func deviceTrace(inj *simt.FaultInjector, n int) []string {
	d := simt.NewDevice(simt.GTX580())
	d.Faults = inj
	var out []string
	for i := 0; i < n; i++ {
		_, err := d.Launch(simt.LaunchConfig{Blocks: 2, WarpsPerBlock: 1, SharedBytesPerBlock: 256},
			func(w *simt.Warp) { w.ALU(1) })
		var flipped int64
		if inj != nil && inj.Mem != nil {
			flipped = inj.Mem.Flips()
		}
		out = append(out, fmt.Sprint(err, d.ReadbackFaults(8), flipped))
	}
	return out
}

// instant is a clock whose timers fire at once, so a scripted stall
// costs nothing.
type instant struct{}

func (instant) Now() time.Time { return time.Time{} }
func (instant) After(time.Duration) <-chan time.Time {
	c := make(chan time.Time, 1)
	c <- time.Time{}
	return c
}

// sink is a connection that accepts every write.
type sink struct{ net.Conn }

func (sink) Write(b []byte) (int, error) { return len(b), nil }
func (sink) Close() error                { return nil }

// frameOf returns a frame as the coordinator writes it, as far as the
// injector looks: an 8-byte header, then the message type.
func frameOf(typ byte) []byte { return append(make([]byte, 8), typ) }

// clusterTrace drives fi through a fixed event script and returns the
// fault schedule it logged (nil for a nil injector). Per worker the
// script makes five dials; each accepted one writes a hello and up to
// four batch frames, with a coordinator assignment before each.
func clusterTrace(fi *cluster.FaultInjector, workers int) []string {
	if fi == nil {
		return nil
	}
	fi.SetClock(instant{})
	hello, batch := frameOf(1), frameOf(4)
	for w := 0; w < workers; w++ {
		for dial := 0; dial < 5; dial++ {
			if fi.AllowConnect(w) != nil {
				continue
			}
			conn := fi.WrapConn(w, sink{})
			conn.Write(hello)
			for b := 0; b < 4; b++ {
				fi.BeforeAssign()
				if _, err := conn.Write(batch); err != nil {
					break
				}
			}
		}
	}
	return fi.Schedule()
}
