// Package obsio wires the optional observability sinks — span tracer,
// metrics registry, kernel-profile collector — and the host
// runtime/pprof profiles to their output files. It is the one place
// the -trace/-traceformat/-metrics/-kprof flag quartet and
// -cpuprofile/-memprofile are declared and interpreted, shared by
// hmmsearch, hmmworker and hmmbench so every binary emits the same
// artifact formats.
//
// Sinks are created only for the flags actually given, so an
// unobserved run keeps the nil fast path end to end (obs and kernprof
// are zero-cost when their handles are nil).
package obsio

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"hmmer3gpu/internal/kernprof"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/pipeline"
)

// Flags are the observability flags, bound by Register.
type Flags struct {
	Trace, TraceFormat, Metrics, Kprof string
	CPUProfile, MemProfile             string
}

// Register declares the named observability flags on fs. A name
// outside the set panics: it is a programming error, caught by any
// test that builds the command's flags.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "trace":
			fs.StringVar(&f.Trace, name, "", "write a span timeline of the run to this file (search, stage, batch, and kernel spans)")
		case "traceformat":
			fs.StringVar(&f.TraceFormat, name, "chrome", "trace file format: chrome (load in ui.perfetto.dev or chrome://tracing) | jsonl")
		case "metrics":
			fs.StringVar(&f.Metrics, name, "", "write the run's counters to this file in Prometheus text format")
		case "kprof":
			fs.StringVar(&f.Kprof, name, "", "write a kernel-grained profile (occupancy, stall attribution, counters) to this file as JSON; render with hmmprof")
		case "cpuprofile":
			fs.StringVar(&f.CPUProfile, name, "", "write a host CPU profile (runtime/pprof) to this file")
		case "memprofile":
			fs.StringVar(&f.MemProfile, name, "", "write a host heap profile (runtime/pprof) to this file on exit")
		default:
			panic(fmt.Sprintf("obsio: -%s is not an observability flag", name))
		}
	}
}

// Open builds the sinks the flags ask for and starts the CPU profile.
// Flush writes every artifact, the heap profile last; an error exit
// (os.Exit) drops them, as with go test.
func (f *Flags) Open() (*Sinks, error) {
	s, err := New(f.Trace, f.TraceFormat, f.Metrics, f.Kprof)
	if err != nil {
		return nil, err
	}
	s.memPath = f.MemProfile
	if f.CPUProfile != "" {
		if s.cpuFile, err = os.Create(f.CPUProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(s.cpuFile); err != nil {
			s.cpuFile.Close()
			return nil, err
		}
	}
	return s, nil
}

// Sinks holds a run's optional observability outputs. The zero value
// (or New with four empty paths) is inert: Apply installs nils and
// Flush writes nothing.
type Sinks struct {
	Tracer    *obs.Tracer
	Registry  *obs.Registry
	Collector *kernprof.Collector

	tracePath, traceFmt string
	metricsPath         string
	kprofPath           string
	cpuFile             *os.File
	memPath             string
}

// New builds the sinks for the given output paths; an empty path
// disables that sink. traceFmt must be "chrome" or "jsonl" when
// tracePath is set.
func New(tracePath, traceFmt, metricsPath, kprofPath string) (*Sinks, error) {
	s := &Sinks{tracePath: tracePath, traceFmt: traceFmt,
		metricsPath: metricsPath, kprofPath: kprofPath}
	if tracePath != "" {
		if traceFmt != "chrome" && traceFmt != "jsonl" {
			return nil, fmt.Errorf("unknown trace format %q (want chrome or jsonl)", traceFmt)
		}
		s.Tracer = obs.New()
	}
	if metricsPath != "" {
		s.Registry = obs.NewRegistry()
	}
	if kprofPath != "" {
		s.Collector = kernprof.NewCollector()
	}
	return s, nil
}

// Apply attaches the sinks to the pipeline options. Options.Profiler
// is a concrete *kernprof.Collector, so a nil Collector stays nil here;
// the typed-nil hazard lives one layer down, where the collector is
// assigned to the Device.Profiler interface (pipeline.attachProfiler
// and bench both guard it).
func (s *Sinks) Apply(opts *pipeline.Options) {
	opts.Trace = s.Tracer
	opts.Metrics = s.Registry
	opts.Profiler = s.Collector
}

// Flush writes the kernel profile, trace, and metrics files, then
// stops the CPU profile and writes the heap profile. The kernel
// profile merges into the registry first, so -kprof counters also land
// in the -metrics Prometheus output. logf (nilable) receives one line
// per sink artifact written.
func (s *Sinks) Flush(logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	defer s.stopProfiles()
	if s.Collector != nil {
		prof := s.Collector.Profile()
		prof.Record(s.Registry)
		if err := prof.WriteFile(s.kprofPath); err != nil {
			return err
		}
		logf("kernel profile (%d launches) written to %s; render with: hmmprof %s",
			len(prof.Launches), s.kprofPath, s.kprofPath)
	}
	if s.Tracer != nil {
		fh, err := os.Create(s.tracePath)
		if err != nil {
			return err
		}
		if s.traceFmt == "jsonl" {
			err = s.Tracer.WriteJSONL(fh)
		} else {
			err = s.Tracer.WriteChromeTraceWithCounters(fh, s.Registry)
		}
		if err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		logf("trace (%s, %d spans) written to %s", s.traceFmt, len(s.Tracer.Spans()), s.tracePath)
	}
	if s.Registry != nil {
		fh, err := os.Create(s.metricsPath)
		if err != nil {
			return err
		}
		if err := s.Registry.WritePrometheus(fh); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		logf("metrics (%d series) written to %s", len(s.Registry.Snapshot()), s.metricsPath)
	}
	return nil
}

// stopProfiles stops the CPU profile and writes the heap snapshot.
func (s *Sinks) stopProfiles() {
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		s.cpuFile.Close()
	}
	if s.memPath != "" {
		fh, err := os.Create(s.memPath)
		if err != nil {
			return
		}
		runtime.GC() // snapshot live objects, not garbage
		pprof.WriteHeapProfile(fh)
		fh.Close()
	}
}
