package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"hmmer3gpu/internal/dispatch"
)

// Standby holds warm connections to the worker roster on behalf of a
// hot-standby coordinator (DESIGN §2j). Each connection completes a
// standby handshake (Role=RoleStandby — the worker acks it but will
// never be assigned batches over it) and is then kept alive with
// pings, so a takeover skips the dial + TCP + handshake latency: the
// promoted coordinator sends a fresh active hello down the already-
// open connection and starts assigning.
//
// Lifecycle: NewStandby → Start (maintainers run until Promote or
// Close) → Promote (stops the maintainers, returns a roster whose
// first dial per worker hands out the warm connection) → the normal
// Coordinator.Run with the promoted roster. Promote may only be
// called once.
type StandbyConfig struct {
	// Workers is the roster to hold warm; Dial must return a fresh
	// connection (same specs the primary uses).
	Workers []WorkerSpec
	// Fingerprint and Mode are carried in the standby handshake; a
	// mismatched worker is nacked exactly as at an active connect.
	Fingerprint [32]byte
	Mode        byte
	// PingEvery is the keepalive cadence (default
	// DefaultHeartbeatEvery). Each ping awaits its pong with a
	// deadline of 4x the cadence; a silent worker's connection is torn
	// down and redialled with capped backoff.
	PingEvery time.Duration
	// Policy is the run's fault policy; the standby uses its backoff
	// to pace redials and its Clock to pace pings and redials (nil: the
	// wall clock). Ping read deadlines always use wall time: net.Conn
	// deadlines cannot run on a fake clock.
	Policy dispatch.Policy
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (c *StandbyConfig) pingEvery() time.Duration {
	return orDefault(c.PingEvery, DefaultHeartbeatEvery)
}

func (c *StandbyConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Standby maintains the warm connections. Create with NewStandby.
type Standby struct {
	cfg StandbyConfig

	mu       sync.Mutex
	conns    []net.Conn // warm connection per worker (nil: down)
	promoted bool
	closed   bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewStandby returns an idle Standby for the roster.
func NewStandby(cfg StandbyConfig) *Standby {
	return &Standby{
		cfg:   cfg,
		conns: make([]net.Conn, len(cfg.Workers)),
		stop:  make(chan struct{}),
	}
}

// Start launches one connection maintainer per worker. The
// maintainers run until Promote or Close (or ctx cancellation).
func (s *Standby) Start(ctx context.Context) {
	for i := range s.cfg.Workers {
		s.wg.Add(1)
		go s.maintain(ctx, i)
	}
}

// Warm returns how many workers currently hold a live standby
// connection.
func (s *Standby) Warm() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.conns {
		if c != nil {
			n++
		}
	}
	return n
}

// maintain owns worker i's warm connection: dial + standby hello, then
// ping/pong keepalive; on any failure, tear down and redial with
// capped backoff. On stop, the connection is left open and untouched —
// Promote hands it to the coordinator.
func (s *Standby) maintain(ctx context.Context, i int) {
	defer s.wg.Done()
	spec := s.cfg.Workers[i]
	clock := dispatch.OrWall(s.cfg.Policy.Clock)
	fails := 0
	nonce := uint64(0)
	for {
		select {
		case <-s.stop:
			return
		case <-ctx.Done():
			return
		default:
		}

		s.mu.Lock()
		conn := s.conns[i]
		s.mu.Unlock()

		if conn == nil {
			c, err := s.connect(ctx, spec)
			if err != nil {
				fails++
				s.cfg.logf("cluster: standby: worker %s unreachable: %v", spec.Name, err)
				select {
				case <-clock.After(s.cfg.Policy.Backoff(fails)):
				case <-s.stop:
					return
				case <-ctx.Done():
					return
				}
				continue
			}
			fails = 0
			s.mu.Lock()
			if s.promoted || s.closed {
				s.mu.Unlock()
				c.Close()
				return
			}
			s.conns[i] = c
			conn = c
			s.mu.Unlock()
			s.cfg.logf("cluster: standby: worker %s connection warm", spec.Name)
		}

		// One keepalive round trip. The pong read runs under a wall-
		// clock deadline so a dead worker cannot wedge the maintainer
		// (and so Promote's stop is honoured within a bounded wait).
		nonce++
		ok := func() bool {
			if err := writeFrame(conn, encodePingPong(msgPing, nonce)); err != nil {
				return false
			}
			conn.SetReadDeadline(time.Now().Add(4 * s.cfg.pingEvery()))
			defer conn.SetReadDeadline(time.Time{})
			typ, payload, err := readFrame(conn)
			if err != nil || typ != msgPong {
				return false
			}
			got, err := parsePingPong(typ, payload)
			return err == nil && got == nonce
		}()
		if !ok {
			s.cfg.logf("cluster: standby: worker %s connection lost, redialling", spec.Name)
			s.mu.Lock()
			s.conns[i] = nil
			s.mu.Unlock()
			conn.Close()
			continue
		}

		select {
		case <-clock.After(s.cfg.pingEvery()):
		case <-s.stop:
			return
		case <-ctx.Done():
			return
		}
	}
}

// connect dials worker i and completes the standby handshake.
func (s *Standby) connect(ctx context.Context, spec WorkerSpec) (net.Conn, error) {
	conn, err := spec.Dial(ctx)
	if err != nil {
		return nil, err
	}
	hello := Handshake{Version: ProtoVersion, Fingerprint: s.cfg.Fingerprint,
		Mode: s.cfg.Mode, Role: RoleStandby}
	if err := writeFrame(conn, encodeHello(hello)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: standby hello to %s: %w", spec.Name, err)
	}
	conn.SetReadDeadline(time.Now().Add(4 * s.cfg.pingEvery()))
	typ, payload, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: standby handshake with %s: %w", spec.Name, err)
	}
	switch typ {
	case msgHelloAck:
		if _, err := parseHelloAck(payload); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	case msgHelloNack:
		reason, perr := parseHelloNack(payload)
		conn.Close()
		if perr != nil {
			return nil, perr
		}
		return nil, &HandshakeError{Worker: spec.Name, Reason: reason}
	default:
		conn.Close()
		return nil, &WireError{Msg: typ, Reason: "unexpected standby handshake reply"}
	}
}

// Promote stops the maintainers and returns the roster for the
// takeover coordinator: each spec's first Dial hands out the warm
// connection (read deadline cleared; a leftover pong from the last
// keepalive may sit in its buffer — the coordinator handshake skips
// pongs); later Dials fall through to a real redial. Workers whose
// connection is down at promotion simply redial — takeover does not
// require a full roster.
func (s *Standby) Promote() []WorkerSpec {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.promoted = true
	specs := make([]WorkerSpec, len(s.cfg.Workers))
	for i := range s.cfg.Workers {
		spec := s.cfg.Workers[i]
		warm := s.conns[i]
		s.conns[i] = nil
		if warm != nil {
			warm.SetReadDeadline(time.Time{})
		}
		var once sync.Once
		specs[i] = WorkerSpec{
			Name: spec.Name,
			Dial: func(ctx context.Context) (net.Conn, error) {
				var c net.Conn
				used := false
				once.Do(func() {
					if warm != nil {
						c, used = warm, true
					}
				})
				if used {
					return c, nil
				}
				return spec.Dial(ctx)
			},
		}
	}
	return specs
}

// Close stops the maintainers and closes every warm connection. A
// no-op after Promote (the coordinator owns the connections then).
func (s *Standby) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.promoted {
		return
	}
	for i, c := range s.conns {
		if c != nil {
			c.Close()
			s.conns[i] = nil
		}
	}
}
