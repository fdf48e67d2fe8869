package serve

import (
	"context"
	"sync"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/simt"
)

// devicePool owns the daemon's simulated devices and leases them to
// queries. Unlike the one-shot CLI — where a quarantined device just
// sits out the rest of the run — the pool remembers: a lease that ends
// with its device quarantined is a strike on the pool's
// dispatch.Breaker, a clean lease clears the device's strikes, and a
// trip cordons the device out of the pool for the life of the process.
// With every device cordoned, leases come back empty and the caller
// degrades to the host CPU.
type devicePool struct {
	mu   sync.Mutex
	cond *sync.Cond
	devs []*poolDevice
	br   *dispatch.Breaker // indexed like devs; quarantined means cordoned
}

type poolDevice struct {
	index int
	dev   *simt.Device
	busy  bool
}

// newDevicePool cordons a device after cordonAfter consecutive
// quarantined leases: 0 means 2, and a negative value never cordons.
func newDevicePool(devs []*simt.Device, cordonAfter int) *devicePool {
	if cordonAfter == 0 {
		cordonAfter = 2
	}
	p := &devicePool{br: dispatch.NewBreaker(len(devs), cordonAfter)}
	p.cond = sync.NewCond(&p.mu)
	for i, d := range devs {
		p.devs = append(p.devs, &poolDevice{index: i, dev: d})
	}
	return p
}

// lease claims up to n healthy devices, blocking while healthy devices
// exist but are all busy. It returns an empty lease — the degrade-to-
// CPU signal — when every device is cordoned, and ctx's error if the
// caller gives up while waiting.
func (p *devicePool) lease(ctx context.Context, n int) ([]*poolDevice, error) {
	if n < 1 {
		n = 1
	}
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()

	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p.br.Healthy() == 0 {
			return nil, nil
		}
		var got []*poolDevice
		for _, d := range p.devs {
			if !d.busy && !p.br.Quarantined(d.index) && len(got) < n {
				got = append(got, d)
			}
		}
		if len(got) > 0 {
			for _, d := range got {
				d.busy = true
			}
			return got, nil
		}
		p.cond.Wait()
	}
}

// release ends a lease. quarantined[i] reports whether lease[i]'s
// device ended the run quarantined (from the scheduler's fault
// report); nil means the run never reached the scheduler (strikes are
// left untouched).
func (p *devicePool) release(lease []*poolDevice, quarantined []bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, d := range lease {
		d.busy = false
		switch {
		case quarantined == nil:
		case i < len(quarantined) && quarantined[i]:
			if _, tripped := p.br.Strike(d.index); tripped {
				p.br.Quarantine(d.index)
			}
		default:
			p.br.Done(d.index)
		}
	}
	p.cond.Broadcast()
}

// health reports pool state for /healthz, /readyz, and gauges. A
// cordoned device is never busy: release frees it before it can trip.
func (p *devicePool) health() (healthy, cordoned, busy int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.devs {
		if d.busy {
			busy++
		}
	}
	healthy = p.br.Healthy()
	return healthy, len(p.devs) - healthy, busy
}

// cordonedIndexes lists cordoned device indexes (for health payloads).
func (p *devicePool) cordonedIndexes() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []int
	for _, d := range p.devs {
		if p.br.Quarantined(d.index) {
			out = append(out, d.index)
		}
	}
	return out
}
