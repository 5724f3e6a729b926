// Package daemon implements the basic ACE service daemon (§2.1): the
// independent, multithreaded shell that every ACE service is built
// on, with the threads of execution the architecture report describes:
//
//   - the main thread initializes the daemon (room database
//     registration, ASD registration, net-logger announcement — the
//     Fig 9 startup sequence), renews the service lease, and manages
//     the other threads;
//   - a command thread per client connection accepts the socket,
//     reads incoming command frames, parses and executes them;
//   - the control thread, which executes commands serially, is a lock
//     (the serial section) a command thread holds to run a handler:
//     one command at a time per daemon and a connection's commands in
//     arrival order, as §2.1 promises, without a queue or a hand-off;
//   - the data thread handles datagram stream operations over a UDP
//     channel.
//
// Services are implemented by declaring command semantics
// (cmdlang.Registry) and registering handlers; everything else —
// encrypted certified socket communications, service registration,
// lease renewal, return commands, notifications — is provided by this
// shell.
package daemon

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/flow"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// Well-known infrastructure command names used during the startup
// sequence (Fig 9). The ASD, room database, and network logger
// daemons declare handlers under these names.
const (
	CmdRegister        = "register"        // ASD: enter the service directory
	CmdRenew           = "renew"           // ASD: renew the service lease
	CmdUnregister      = "unregister"      // ASD: leave the directory
	CmdLookup          = "lookup"          // ASD: find services
	CmdRegisterService = "registerService" // room DB: record placement
	CmdRemoveService   = "removeService"   // room DB: remove placement
	CmdLogEvent        = "logEvent"        // net logger: record history
)

// DefaultLeaseTTL is the ASD lease duration requested by daemons that
// do not configure their own.
const DefaultLeaseTTL = 10 * time.Second

// Handler executes one service command in the daemon's serial
// section. It returns a return command ("ok" with result arguments)
// or an error, which the shell converts to a "fail" return command.
// Returning (nil, nil) is shorthand for a bare "ok".
type Handler func(ctx *Ctx, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error)

// Authorizer gates command execution (§3.2). The daemon consults it
// in the serial section before every non-built-in command; a non-nil
// error refuses execution with a "denied" return command.
type Authorizer interface {
	Authorize(principal string, cmd *cmdlang.CmdLine) error
}

// Ctx carries per-invocation context to handlers.
type Ctx struct {
	// D is the executing daemon.
	D *Daemon
	// Principal is the authenticated peer identity (TLS certificate
	// common name), or "anonymous" on plaintext transports.
	Principal string
	// RemoteAddr is the peer's network address.
	RemoteAddr string
	// Trace is the span context the command arrived under (the zero
	// value when the caller sent no trace header). Handlers that call
	// downstream services should pass TraceContext() so the remote
	// spans join the same trace.
	Trace telemetry.SpanContext

	// inv is the enclosing invocation while the serial section has it
	// armed for Detach; nil otherwise (ExecuteLocal, a Ctx built by the
	// caller, a handler that already detached).
	inv *invocation
}

// invocation is one command's passage through the shell, allocated
// once per message: the command thread builds it from a parsed frame
// and executes it, handlers receive its embedded Ctx, and complete
// finishes it.
type invocation struct {
	Ctx
	e      *handlerEntry    // nil when the verb has no handler
	cmd    *cmdlang.CmdLine // seq already removed
	start  time.Time        // dispatch start, after any wait for the serial section
	ticket *flow.Ticket     // admission slot; nil for ExecuteLocal
	out    *replyWriter     // nil when no reply is wanted (one-way, ExecuteLocal)
	seq    int64            // echoed on the reply when out is set
}

// Detach releases the daemon's serial section from this invocation:
// the handler returns immediately (its return value is discarded) and the
// reply is delivered later, when the handler's continuation calls
// finish with it — from any goroutine, exactly once. This is for
// handlers whose commit point is genuinely slow (an fsync, a quorum
// round): without detaching, that wait would stall every other
// command on the daemon, and concurrent writes could never batch.
// Admission tickets, dispatch latency, and notifications all account
// to the moment finish is called, so flow control keeps seeing the
// true cost.
//
// ok is false when the invocation cannot detach (ExecuteLocal, or a
// nested dispatch): the handler must then do the work synchronously.
func (c *Ctx) Detach() (finish func(reply *cmdlang.CmdLine), ok bool) {
	inv := c.inv
	if inv == nil {
		return nil, false
	}
	c.inv = nil // consumed: execute sees it gone and stands back
	return func(reply *cmdlang.CmdLine) { inv.complete(reply) }, true
}

// TraceContext returns a context carrying the invocation's span
// context, for handlers issuing downstream calls via the pool. With
// no active trace it is a plain background context.
func (c *Ctx) TraceContext() context.Context {
	if c == nil || !c.Trace.Valid() {
		return context.Background()
	}
	return telemetry.WithSpanContext(context.Background(), c.Trace)
}

// Config describes one ACE service daemon.
type Config struct {
	// Name is the unique service instance name (e.g. "ptz_cam_1").
	Name string
	// Class is the position in the service daemon hierarchy (Fig 6),
	// dotted from the root, e.g. "Service.Device.PTZCamera.VCC4".
	Class string
	// Room is the room this service lives in (Fig 9's "hawk").
	Room string
	// Host is the logical host machine name (Fig 9's "bar").
	Host string
	// Transport supplies TLS identity; nil means plaintext (tests and
	// the E12 experiment only).
	Transport *wire.Transport
	// Registry declares the service's command semantics. The shell
	// adds the built-in commands. Nil creates an empty registry.
	Registry *cmdlang.Registry
	// ASDAddr is the well-known socket of the ACE Service Directory;
	// empty disables registration (the ASD itself does this).
	ASDAddr string
	// ASDAddrs lists additional directory replicas (replicated ASD
	// deployments). Registration, lease renewal, and deregistration
	// prefer ASDAddr (or the first replica) and fail over to the next
	// on transport failure, so killing one directory daemon never
	// costs a daemon its lease.
	ASDAddrs []string
	// RoomDBAddr is the room database daemon; empty skips step 2 of
	// the startup sequence.
	RoomDBAddr string
	// NetLogAddr is the network logger; empty skips step 5.
	NetLogAddr string
	// LeaseTTL is the directory lease requested at registration.
	LeaseTTL time.Duration
	// Authorizer gates command execution; nil allows everything.
	Authorizer Authorizer
	// DataHandler receives datagrams from the UDP data thread; nil
	// installs a counting sink.
	DataHandler func(pkt []byte, from net.Addr)
	// Listen is the TCP listen address; empty means "127.0.0.1:0".
	Listen string
	// PoolConfig optionally tunes the daemon's outgoing connection
	// pool (timeouts, retries, circuit breaker). Nil uses defaults.
	// Its Transport, Telemetry and Metrics fields are overwritten so
	// the pool records into the daemon's registry.
	PoolConfig *PoolConfig
	// Telemetry receives the daemon's metrics and spans; nil creates a
	// private registry.
	Telemetry *telemetry.Registry
	// Flow optionally tunes the daemon's admission controller. Nil
	// takes flow.Config defaults, which are generous enough that an
	// unloaded daemon never notices the controller. Production leaves
	// it nil; tests pin a capacity with a fixed limit
	// (InitialLimit = MinLimit = MaxLimit) and a costed handler.
	Flow *flow.Config
	// ControlVerbs names additional commands classified as
	// control-plane for admission: they are admitted into reserved
	// headroom above the data-plane limit and bypass fair-share
	// accounting.
	// The lease/heartbeat protocol verbs (register, renew, unregister,
	// ping, telemetry, stats) are always control-plane; a pstore node
	// adds its anti-entropy verbs here.
	ControlVerbs []string
}

// Stats are the daemon's execution counters.
type Stats struct {
	Connections   int64
	CommandsOK    int64
	CommandsFail  int64
	Denied        int64
	Notifications int64
	DataPackets   int64
}

// handlerEntry is the single record of one verb. Handle and bind
// create it; Start fills the rest once the tables are frozen, so the
// command thread resolves a message's verb with one map lookup and
// admission priority, validation, the authorizer exemption and the
// dispatch histogram all come from the entry.
type handlerEntry struct {
	fn Handler
	// builtin marks the shell's own protocol plumbing, exempt from the
	// authorization gate: every client needs it before credentials can
	// even be exchanged.
	builtin bool

	spec    *cmdlang.CommandSpec // the verb's declared semantics
	hist    *telemetry.Histogram // per-verb dispatch latency
	control bool                 // admitted as control-plane
}

// Daemon is a running ACE service daemon.
type Daemon struct {
	cfg      Config
	registry *cmdlang.Registry
	handlers map[string]*handlerEntry

	listener net.Listener
	udp      *net.UDPConn
	done     chan struct{}
	wg       sync.WaitGroup
	pool     *Pool
	serial   sync.Mutex // the §2.1 control thread; see execute

	// flow is the admission controller guarding the accept loop and
	// dispatch path.
	flow *flow.Controller
	// asdAddrs is the deduplicated directory replica list (ASDAddr
	// first); asdPreferred indexes the replica that last answered, so
	// the lease protocol sticks to a live directory instead of paying
	// the failover walk every renewal.
	asdAddrs     []string
	asdPreferred atomic.Int32
	// notifySem bounds concurrent notification deliveries; see
	// dispatchNotifications.
	notifySem chan struct{}

	notify notifyTable

	mu      sync.Mutex
	started bool
	stopped bool

	connsMu sync.Mutex
	conns   map[net.Conn]struct{}

	nConns  atomic.Int64
	nOK     atomic.Int64
	nFail   atomic.Int64
	nDenied atomic.Int64
	nNotify atomic.Int64
	nData   atomic.Int64

	tel         *telemetry.Registry
	traces      *telemetry.TraceBuffer
	wireMetrics *wire.Metrics
	// dispatchOther times commands without a registered handler;
	// per-verb histograms live on each handlerEntry.
	dispatchOther *telemetry.Histogram
	notifySent    *telemetry.Counter
	notifyErrs    *telemetry.Counter
	deregErrs     *telemetry.Counter
	connsActive   *telemetry.Gauge
}

// Daemon metric names. Per-verb dispatch latency appears as
// MetricDispatchPrefix + verb; commands without a handler fall into
// MetricDispatchOther.
const (
	MetricDispatchPrefix = "daemon.dispatch."
	MetricDispatchOther  = "daemon.dispatch.other"
	MetricNotifySent     = "daemon.notify.sent"
	MetricNotifyErrors   = "daemon.notify.errors"
	MetricDeregErrors    = "daemon.stop.dereg_errors"
	MetricConnsActive    = "daemon.conns.active"
)

// New constructs a daemon from cfg and installs the built-in command
// set. Handlers for the service's own commands are added with Handle
// before Start.
func New(cfg Config) *Daemon {
	if cfg.Name == "" {
		cfg.Name = "ace_service"
	}
	if cfg.Class == "" {
		cfg.Class = "Service"
	}
	if cfg.Host == "" {
		cfg.Host, _ = hostName()
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	reg := cmdlang.NewRegistry()
	if cfg.Registry != nil {
		reg.Merge(cfg.Registry)
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	traces := telemetry.NewTraceBuffer()
	wm := wire.NewMetrics(tel)
	pc := PoolConfig{Transport: cfg.Transport}
	if cfg.PoolConfig != nil {
		pc = *cfg.PoolConfig
		pc.Transport = cfg.Transport
	}
	// Server-side and pool-side wire traffic share one instrument
	// group, so the wire.* metrics describe the daemon's whole
	// footprint.
	pc.Telemetry = tel
	pc.Metrics = wm
	d := &Daemon{
		cfg:           cfg,
		registry:      reg,
		handlers:      make(map[string]*handlerEntry),
		notifySem:     make(chan struct{}, notifySlots),
		done:          make(chan struct{}),
		conns:         make(map[net.Conn]struct{}),
		pool:          NewPoolConfig(pc),
		tel:           tel,
		traces:        traces,
		wireMetrics:   wm,
		dispatchOther: tel.Histogram(MetricDispatchOther),
		notifySent:    tel.Counter(MetricNotifySent),
		notifyErrs:    tel.Counter(MetricNotifyErrors),
		deregErrs:     tel.Counter(MetricDeregErrors),
		connsActive:   tel.Gauge(MetricConnsActive),
	}
	fc := flow.Config{}
	if cfg.Flow != nil {
		fc = *cfg.Flow
	}
	d.flow = flow.NewController(fc, tel)
	seen := map[string]bool{}
	for _, addr := range append([]string{cfg.ASDAddr}, cfg.ASDAddrs...) {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		d.asdAddrs = append(d.asdAddrs, addr)
	}
	d.installBuiltins()
	return d
}

// Flow returns the daemon's admission controller.
func (d *Daemon) Flow() *flow.Controller { return d.flow }

// Telemetry returns the daemon's metrics registry.
func (d *Daemon) Telemetry() *telemetry.Registry { return d.tel }

// Traces returns the daemon's span buffer.
func (d *Daemon) Traces() *telemetry.TraceBuffer { return d.traces }

func hostName() (string, error) { return "localhost", nil }

// Handle registers a handler and (optionally) its command spec. It
// must be called before Start, at most once per verb. It panics on a
// verb that already has a handler (the service's own or a built-in
// such as ping), on the reply verbs ok and fail, and (through
// Registry.Declare) on a name that is not a cmdlang word.
func (d *Daemon) Handle(spec cmdlang.CommandSpec, h Handler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		panic("daemon: Handle after Start")
	}
	if spec.Name == "ok" || spec.Name == "fail" {
		panic(fmt.Sprintf("daemon: verb %q is a reply, not a command", spec.Name))
	}
	if _, dup := d.handlers[spec.Name]; dup {
		panic(fmt.Sprintf("daemon: verb %q already has a handler", spec.Name))
	}
	d.registry.Declare(spec)
	d.handlers[spec.Name] = &handlerEntry{fn: h}
}

// bind installs a built-in handler without re-declaring its spec.
func (d *Daemon) bind(name string, h Handler) {
	d.handlers[name] = &handlerEntry{fn: h, builtin: true}
}

// Name returns the service instance name.
func (d *Daemon) Name() string { return d.cfg.Name }

// Class returns the hierarchy class.
func (d *Daemon) Class() string { return d.cfg.Class }

// Room returns the configured room.
func (d *Daemon) Room() string { return d.cfg.Room }

// Registry exposes the daemon's command semantics (read-only after
// Start).
func (d *Daemon) Registry() *cmdlang.Registry { return d.registry }

// Pool returns the daemon's outgoing client pool, for handlers that
// need to call other services.
func (d *Daemon) Pool() *Pool { return d.pool }

// Addr returns the command socket address ("host:port"); valid after
// Start.
func (d *Daemon) Addr() string {
	if d.listener == nil {
		return ""
	}
	return d.listener.Addr().String()
}

// Port returns the TCP command port; valid after Start.
func (d *Daemon) Port() int {
	if d.listener == nil {
		return 0
	}
	return d.listener.Addr().(*net.TCPAddr).Port
}

// DataAddr returns the UDP data channel address; valid after Start.
func (d *Daemon) DataAddr() string {
	if d.udp == nil {
		return ""
	}
	return d.udp.LocalAddr().String()
}

// Stats snapshots the execution counters.
func (d *Daemon) Stats() Stats {
	return Stats{
		Connections:   d.nConns.Load(),
		CommandsOK:    d.nOK.Load(),
		CommandsFail:  d.nFail.Load(),
		Denied:        d.nDenied.Load(),
		Notifications: d.nNotify.Load(),
		DataPackets:   d.nData.Load(),
	}
}

// Start brings the daemon online: it opens the command and data
// sockets, starts the data thread and the accept loop, runs the Fig 9
// startup sequence, and begins lease renewal. Start returns once the
// daemon is registered and serving.
func (d *Daemon) Start() error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return errors.New("daemon: already started")
	}
	d.started = true
	d.mu.Unlock()

	// The tables are frozen now (Handle panics after Start), so every
	// verb record can be completed once and read lock-free afterwards.
	for name, e := range d.handlers {
		e.spec, _ = d.registry.Lookup(name)
		e.hist = d.tel.Histogram(MetricDispatchPrefix + name)
	}
	// The lease/heartbeat protocol is always control-plane: these verbs
	// must survive overload or the directory forgets live services.
	for _, name := range append([]string{CmdRegister, CmdRenew, CmdUnregister, CmdPing, CmdStats, CmdTelemetry}, d.cfg.ControlVerbs...) {
		if e := d.handlers[name]; e != nil {
			e.control = true
		}
	}

	ln, err := net.Listen("tcp", d.cfg.Listen)
	if err != nil {
		return fmt.Errorf("daemon %s: listen: %w", d.cfg.Name, err)
	}
	d.listener = ln

	udpAddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
	udp, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		ln.Close()
		return fmt.Errorf("daemon %s: udp listen: %w", d.cfg.Name, err)
	}
	// Media streams arrive in bursts; a roomy socket buffer keeps the
	// data thread from dropping frames while it dispatches.
	udp.SetReadBuffer(4 << 20)  //nolint:errcheck — best effort
	udp.SetWriteBuffer(4 << 20) //nolint:errcheck
	d.udp = udp

	// Data thread.
	d.wg.Add(1)
	go d.dataThread()
	// Accept loop feeding per-connection command threads.
	d.wg.Add(1)
	go d.acceptLoop()

	if err := d.startupSequence(); err != nil {
		d.Stop()
		return err
	}

	// Main thread duties continue in the background: lease renewal.
	if len(d.asdAddrs) > 0 {
		d.wg.Add(1)
		go d.leaseLoop()
	}
	return nil
}

// startupSequence performs Fig 9 steps 2–5: room database placement,
// ASD registration (which may trigger notifications inside the ASD),
// and the net-logger start record.
func (d *Daemon) startupSequence() error {
	if d.cfg.RoomDBAddr != "" {
		cmd := cmdlang.New(CmdRegisterService).
			SetWord("room", wordOr(d.cfg.Room)).
			SetWord("service", wordOr(d.cfg.Name)).
			SetWord("host", wordOr(d.cfg.Host)).
			SetInt("port", int64(d.Port())).
			SetString("class", d.cfg.Class)
		if _, err := d.pool.Call(d.cfg.RoomDBAddr, cmd); err != nil {
			return fmt.Errorf("daemon %s: room database: %w", d.cfg.Name, err)
		}
	}
	if len(d.asdAddrs) > 0 {
		if err := d.registerASD(); err != nil {
			return err
		}
	}
	if d.cfg.NetLogAddr != "" {
		cmd := cmdlang.New(CmdLogEvent).
			SetWord("source", wordOr(d.cfg.Name)).
			SetWord("event", "started").
			SetWord("host", wordOr(d.cfg.Host)).
			SetString("detail", "service "+d.cfg.Name+" started on host "+d.cfg.Host)
		if d.cfg.Room != "" {
			cmd.SetWord("room", wordOr(d.cfg.Room))
		}
		if _, err := d.pool.Call(d.cfg.NetLogAddr, cmd); err != nil {
			return fmt.Errorf("daemon %s: net logger: %w", d.cfg.Name, err)
		}
	}
	return nil
}

// asdCall issues one lease-protocol command against the directory,
// failing over across its replicas (see Failover).
func (d *Daemon) asdCall(cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	return Failover(d.asdAddrs, &d.asdPreferred, func(addr string) (*cmdlang.CmdLine, error) {
		return d.pool.Call(addr, cmd)
	})
}

func (d *Daemon) registerASD() error {
	cmd := cmdlang.New(CmdRegister).
		SetWord("name", wordOr(d.cfg.Name)).
		SetWord("host", wordOr(d.cfg.Host)).
		SetInt("port", int64(d.Port())).
		SetString("addr", d.Addr()).
		SetString("class", d.cfg.Class).
		SetInt("lease", int64(d.cfg.LeaseTTL/time.Millisecond))
	if d.cfg.Room != "" {
		cmd.SetWord("room", wordOr(d.cfg.Room))
	}
	_, err := d.asdCall(cmd)
	if err != nil {
		return fmt.Errorf("daemon %s: ASD register: %w", d.cfg.Name, err)
	}
	return nil
}

// leaseLoop periodically renews the ASD lease; if a renewal finds the
// registration gone (e.g. the ASD restarted), it re-registers.
func (d *Daemon) leaseLoop() {
	defer d.wg.Done()
	interval := d.cfg.LeaseTTL / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-t.C:
			cmd := cmdlang.New(CmdRenew).
				SetWord("name", d.cfg.Name).
				SetInt("lease", int64(d.cfg.LeaseTTL/time.Millisecond))
			if _, err := d.asdCall(cmd); err != nil {
				// A renewal racing Stop's unregister gets not_found
				// from our own graceful exit; re-registering then
				// would resurrect the entry we just removed.
				d.mu.Lock()
				stopping := d.stopped
				d.mu.Unlock()
				if cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) && !stopping {
					d.registerASD() //nolint:errcheck — retried next tick
				}
			}
		}
	}
}

// Stop shuts the daemon down: it unregisters from the ASD and room
// database, records the stop event, closes sockets, and joins all
// threads.
func (d *Daemon) Stop() {
	d.mu.Lock()
	if !d.started || d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	d.mu.Unlock()

	// Graceful deregistration (best effort; infrastructure daemons
	// may already be gone). Failures never block shutdown, but they
	// are counted so an operator can see when services exit without
	// cleanly leaving the directory.
	if len(d.asdAddrs) > 0 {
		if _, err := d.asdCall(cmdlang.New(CmdUnregister).SetWord("name", wordOr(d.cfg.Name))); err != nil {
			d.deregErrs.Inc()
		}
	}
	if d.cfg.RoomDBAddr != "" {
		if _, err := d.pool.Call(d.cfg.RoomDBAddr, cmdlang.New(CmdRemoveService).
			SetWord("room", wordOr(d.cfg.Room)).SetWord("service", wordOr(d.cfg.Name))); err != nil {
			d.deregErrs.Inc()
		}
	}
	if d.cfg.NetLogAddr != "" {
		stopCmd := cmdlang.New(CmdLogEvent).
			SetWord("source", wordOr(d.cfg.Name)).SetWord("event", "stopped").
			SetWord("host", wordOr(d.cfg.Host)).
			SetString("detail", "service "+d.cfg.Name+" stopped")
		if d.cfg.Room != "" {
			stopCmd.SetWord("room", wordOr(d.cfg.Room))
		}
		if _, err := d.pool.Call(d.cfg.NetLogAddr, stopCmd); err != nil {
			d.deregErrs.Inc()
		}
	}

	close(d.done)
	// Closing the flow controller wakes every queued waiter with
	// ErrClosed, so no command thread blocks shutdown inside Admit.
	d.flow.Close()
	d.listener.Close()
	d.udp.Close()
	d.connsMu.Lock()
	for c := range d.conns {
		c.Close()
	}
	d.connsMu.Unlock()
	d.pool.Close()
	d.wg.Wait()
}

// acceptLoop is run by the main thread's accept goroutine; each
// admitted connection gets its own command thread. Connections beyond
// the flow controller's cap are closed immediately — a bounded number
// of command threads is the first line of overload defense.
func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	tlsCfg := d.cfg.Transport.ServerConfig()
	for {
		raw, err := d.listener.Accept()
		if err != nil {
			return
		}
		if !d.flow.AdmitConn() {
			raw.Close()
			continue
		}
		d.nConns.Add(1)
		var conn net.Conn = raw
		if tlsCfg != nil {
			conn = tls.Server(raw, tlsCfg)
		}
		d.connsMu.Lock()
		d.conns[conn] = struct{}{}
		d.connsMu.Unlock()
		d.wg.Add(1)
		go d.commandThread(conn)
	}
}

// commandThread reads, parses, admits and executes the commands of one
// client connection, one after another (Fig 5's receiving side).
func (d *Daemon) commandThread(conn net.Conn) {
	defer d.wg.Done()
	defer func() {
		conn.Close()
		d.connsMu.Lock()
		delete(d.conns, conn)
		d.connsMu.Unlock()
		d.flow.ReleaseConn()
	}()

	principal := "anonymous"
	if tc, ok := conn.(*tls.Conn); ok {
		if err := tc.Handshake(); err != nil {
			return
		}
		state := tc.ConnectionState()
		if len(state.PeerCertificates) > 0 {
			principal = state.PeerCertificates[0].Subject.CommonName
		}
	}
	remote := conn.RemoteAddr().String()
	d.connsActive.Add(1)
	defer d.connsActive.Add(-1)

	out := &replyWriter{d: d, conn: conn}
	in := wire.NewReader(conn)
	for {
		payload, err := in.ReadFrame()
		if err != nil {
			return
		}
		d.wireMetrics.FrameRecv(len(payload))
		sc, _, text := wire.SplitPayload(payload)
		// The frame's bytes are the command's from here on: its words,
		// strings and byte strings point into them.
		cmd, perr := cmdlang.ParseBytes(text)
		if perr != nil {
			// Syntactically broken input is answered directly, outside
			// the serial section. What could not be parsed has no seq to
			// answer under.
			out.write(cmdlang.FailErr(perr), false, 0)
			continue
		}
		inv := &invocation{
			Ctx: Ctx{D: d, Principal: principal, RemoteAddr: remote, Trace: sc},
			e:   d.handlers[cmd.Name()],
			cmd: cmd,
		}
		// The seq argument is protocol-level, not part of any verb's
		// semantics. This thread owns the freshly parsed command, so it
		// is taken out in place before anything validates or relays it.
		if v, ok := cmd.Get(cmdlang.SeqArg); ok {
			inv.seq, _ = v.AsInt()
			inv.out = out
			cmd.Del(cmdlang.SeqArg)
		}
		// Admission control happens before the serial section: shedding
		// must not consume serial time, and a shed request is answered
		// with a retryable busy reply instead of hanging.
		pri := flow.Data
		if inv.e != nil && inv.e.control {
			pri = flow.Control
		}
		inv.ticket, err = d.flow.Admit(context.Background(), pri, principal)
		if err != nil {
			if errors.Is(err, flow.ErrClosed) {
				return // daemon is stopping
			}
			var retry time.Duration
			if re, ok := flow.IsRejected(err); ok {
				retry = re.RetryAfter
			}
			inv.respond(cmdlang.Busy(retry))
			continue
		}
		if !d.execute(inv) {
			return // daemon is stopping
		}
	}
}

// execute runs one admitted invocation in the serial section and
// completes it outside, so a client that stops reading holds only its
// own connection. A command still waiting for the section when the
// daemon stops is not executed: execute releases its ticket and
// reports false.
func (d *Daemon) execute(inv *invocation) bool {
	d.serial.Lock()
	select {
	case <-d.done:
		d.serial.Unlock()
		inv.ticket.Done()
		return false
	default:
	}
	inv.start = time.Now()
	inv.Ctx.inv = inv // arm Detach for the handler's duration
	reply := d.dispatch(inv)
	detached := inv.Ctx.inv == nil // the handler's finish owns the rest
	inv.Ctx.inv = nil
	d.serial.Unlock()
	if !detached {
		inv.complete(reply)
	}
	return true
}

// replyWriter serializes reply frames onto one client connection: the
// command thread and detached handlers' finishes write concurrently.
type replyWriter struct {
	d    *Daemon
	conn net.Conn
	mu   sync.Mutex
}

// write sends reply as one frame, under seq when numbered. The reply
// is only read: a handler may return the same command line to every
// caller.
func (w *replyWriter) write(reply *cmdlang.CmdLine, numbered bool, seq int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// A peer that stopped reading must not hold its command thread (or,
	// when a detached handler finishes inline, the serial section)
	// behind a full socket buffer for ever: the write gives up after the
	// call timeout. A failed write may have left half a frame on the
	// stream, so the connection is closed — the reply is dropped and
	// the connection's command thread ends on its next read.
	w.conn.SetWriteDeadline(time.Now().Add(w.d.pool.cfg.CallTimeout)) //nolint:errcheck — best effort on a dying conn
	n, err := w.frame(reply, numbered, seq)
	if _, tooLarge := err.(*wire.ErrFrameTooLarge); tooLarge {
		// Nothing was written and the stream is intact: the caller is
		// told, under its seq, instead of being left to its timeout.
		n, err = w.frame(cmdlang.Fail(cmdlang.CodeInternal, "reply: "+err.Error()), numbered, seq)
	}
	if err != nil {
		w.conn.Close()
		return
	}
	w.d.wireMetrics.FrameSent(n)
}

func (w *replyWriter) frame(reply *cmdlang.CmdLine, numbered bool, seq int64) (int, error) {
	if numbered {
		return wire.WriteReply(w.conn, reply, seq)
	}
	return wire.WriteCmd(w.conn, reply)
}

// respond sends reply under the invocation's seq; one-way commands
// (no seq, so no writer) get none.
func (inv *invocation) respond(reply *cmdlang.CmdLine) {
	if inv.out != nil {
		inv.out.write(reply, true, inv.seq)
	}
}

// dispatch validates, authorizes and runs the invocation's command,
// returning the handler's reply (nil is a bare "ok").
func (d *Daemon) dispatch(inv *invocation) *cmdlang.CmdLine {
	e, cmd := inv.e, inv.cmd
	if e == nil {
		return cmdlang.Fail(cmdlang.CodeUnknownCommand, "unknown command "+strconv.Quote(cmd.Name()))
	}
	if err := e.spec.Validate(cmd); err != nil {
		return cmdlang.FailErr(err)
	}
	// Authorization gate (§3.2). Built-in protocol commands are
	// always permitted; everything else consults the authorizer.
	if d.cfg.Authorizer != nil && !e.builtin {
		if err := d.cfg.Authorizer.Authorize(inv.Principal, cmd); err != nil {
			d.nDenied.Add(1)
			return cmdlang.Fail(cmdlang.CodeDenied, err.Error())
		}
	}
	res, err := e.fn(&inv.Ctx, cmd)
	if err != nil {
		return cmdlang.FailErr(err)
	}
	return res
}

// complete is the one end of every invocation, whichever way it ran:
// on its command thread after the serial section, from a detached
// handler's finish, or under ExecuteLocal. It releases the admission
// ticket (whose admit-to-Done latency — serial-section wait plus
// execution — is the
// congestion signal driving the adaptive limit), records the dispatch
// latency and span, counts the outcome before the reply can reach the
// caller, replies, and fans out notifications.
func (inv *invocation) complete(reply *cmdlang.CmdLine) *cmdlang.CmdLine {
	d := inv.D
	if reply == nil {
		reply = cmdlang.OK()
	}
	ok := cmdlang.IsOK(reply)
	inv.ticket.Done()
	dur := time.Since(inv.start)
	if inv.e != nil {
		inv.e.hist.Observe(dur)
	} else {
		d.dispatchOther.Observe(dur)
	}
	if tc := inv.Trace; tc.Valid() {
		d.traces.Record(telemetry.Span{
			TraceID:  tc.TraceID,
			SpanID:   tc.SpanID,
			Parent:   tc.Parent,
			Name:     inv.cmd.Name(),
			Service:  d.cfg.Name,
			Start:    inv.start,
			Duration: dur,
			OK:       ok,
		})
	}
	if ok {
		d.nOK.Add(1)
	} else {
		d.nFail.Add(1)
	}
	inv.respond(reply)
	if ok {
		d.dispatchNotifications(&inv.Ctx, inv.cmd)
	}
	return reply
}

// ExecuteLocal runs a command through the daemon's own dispatch path
// — validation, authorization, handler, notifications — on the
// calling goroutine. It exists for handlers that need to execute
// another of their daemon's commands (e.g. a device scan that
// internally executes "identify" so its notification listeners fire):
// calling the daemon over its own socket from a handler would deadlock
// on the serial section the handler holds. ExecuteLocal takes no lock:
// from a handler it runs in the section already held, from another
// goroutine (a reaper, a sensor loop) beside it. ctx supplies the
// principal and trace the command runs under (nil: the daemon itself);
// the command runs on an invocation of its own that cannot Detach,
// even when ctx belongs to an invocation that can.
func (d *Daemon) ExecuteLocal(ctx *Ctx, cmd *cmdlang.CmdLine) *cmdlang.CmdLine {
	inv := &invocation{
		Ctx:   Ctx{Principal: d.cfg.Name, RemoteAddr: "local"},
		e:     d.handlers[cmd.Name()],
		cmd:   cmd,
		start: time.Now(),
	}
	if ctx != nil {
		inv.Ctx = *ctx
		inv.Ctx.inv = nil
	}
	inv.D = d
	return inv.complete(d.dispatch(inv))
}

// dataThread receives datagrams on the UDP channel and hands them to
// the configured data handler.
func (d *Daemon) dataThread() {
	defer d.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, from, err := d.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		d.nData.Add(1)
		if d.cfg.DataHandler != nil {
			pkt := make([]byte, n)
			copy(pkt, buf[:n])
			d.cfg.DataHandler(pkt, from)
		}
	}
}

// SendData transmits a datagram to another daemon's data channel.
func (d *Daemon) SendData(addr string, pkt []byte) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	_, err = d.udp.WriteToUDP(pkt, ua)
	return err
}
