package simt

import (
	"fmt"
	"sync"
)

// System is a multi-GPU host: the paper's 4x GTX 580 configuration is
// a System of four Fermi devices with the sequence database partitioned
// across them ("the processing of the sequence database can be easily
// parallelized across multiple devices without any dependencies").
type System struct {
	Devices []*Device
}

// NewSystem creates n identical devices.
func NewSystem(spec DeviceSpec, n int) *System {
	sys := &System{}
	for i := 0; i < n; i++ {
		dev := NewDevice(spec)
		dev.Label = fmt.Sprintf("device%d", i)
		sys.Devices = append(sys.Devices, dev)
	}
	return sys
}

// SetMode sets the simulation mode on every device and returns the
// system for chaining.
func (sys *System) SetMode(m Mode) *System {
	for _, dev := range sys.Devices {
		dev.Mode = m
	}
	return sys
}

// ApplyFaults attaches one injector per device index (a fault plan's
// Devices, see internal/faults); an index beyond the system's devices
// is an error.
func (sys *System) ApplyFaults(faults map[int]*FaultInjector) error {
	for i, inj := range faults {
		if i < 0 || i >= len(sys.Devices) {
			return fmt.Errorf("simt: fault spec names device %d, system has %d devices", i, len(sys.Devices))
		}
		sys.Devices[i].Faults = inj
	}
	return nil
}

// LaunchAll runs one launch per device concurrently; launch(i, dev)
// must submit device i's share of the work and return its report.
// Reports come back indexed by device. The first error wins.
func (sys *System) LaunchAll(launch func(i int, dev *Device) (*LaunchReport, error)) ([]*LaunchReport, error) {
	reports := make([]*LaunchReport, len(sys.Devices))
	errs := make([]error, len(sys.Devices))
	var wg sync.WaitGroup
	wg.Add(len(sys.Devices))
	for i, dev := range sys.Devices {
		go func(i int, dev *Device) {
			defer wg.Done()
			reports[i], errs[i] = launch(i, dev)
		}(i, dev)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// SetProfiler attaches one Profiler to every device and returns the
// system for chaining; a nil argument detaches profiling everywhere.
func (sys *System) SetProfiler(p Profiler) *System {
	for _, dev := range sys.Devices {
		dev.Profiler = p
	}
	return sys
}
