package daemon

import (
	"sync"

	"ace/internal/cmdlang"
)

// Notifications (§2.5, Fig 8): every daemon keeps a running list of
// commands being "listened" for and the services to notify when such
// commands execute. After a command executes successfully, the listed
// command-interface methods are invoked on the notified services.

// NotifyMethodArgs are the arguments carried by an invoked
// notification method: who notified, which command executed, and the
// full original command string for the notified service to decompose.
const (
	NotifySourceArg = "source"
	NotifyEventArg  = "event"
	NotifyDetailArg = "detail"
)

type notifyTarget struct {
	Service string
	Addr    string
	Method  string
}

// notifySlots bounds the concurrent notification deliveries in
// flight per daemon. When all slots are taken the delivery is dropped
// and counted as a notify error: notifications are best-effort
// one-way messages, and an unbounded fan-out goroutine per listener
// is exactly the overload amplifier the flow subsystem exists to
// prevent.
const notifySlots = 64

type notifyTable struct {
	mu      sync.Mutex
	targets map[string][]notifyTarget // command name → targets
}

func (t *notifyTable) add(cmd string, nt notifyTarget) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.targets == nil {
		t.targets = make(map[string][]notifyTarget)
	}
	for _, existing := range t.targets[cmd] {
		if existing == nt {
			return // idempotent
		}
	}
	t.targets[cmd] = append(t.targets[cmd], nt)
}

func (t *notifyTable) remove(cmd, service, method string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.targets[cmd]
	kept := list[:0]
	removed := 0
	for _, nt := range list {
		if nt.Service == service && nt.Method == method {
			removed++
			continue
		}
		kept = append(kept, nt)
	}
	if len(kept) == 0 {
		delete(t.targets, cmd)
	} else {
		t.targets[cmd] = kept
	}
	return removed
}

func (t *notifyTable) list(cmd string) []notifyTarget {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cmd != "" {
		return append([]notifyTarget(nil), t.targets[cmd]...)
	}
	var all []notifyTarget
	for _, l := range t.targets {
		all = append(all, l...)
	}
	return all
}

// dispatchNotifications runs from complete, outside the serial
// section, after a command executes successfully (Fig 8 steps 2–3).
// Delivery itself happens off-thread so a slow or dead listener cannot
// stall the connection; invocation is one-way (no seq → no reply
// expected).
// When the triggering command was traced, each notification frame
// carries that trace's context so the fan-out appears in the
// assembled trace.
//
// A detached handler's finish also ends here, and may do so after Stop
// has begun: Stop then sits in wg.Wait, which no Add from outside the
// joined threads may race. Stop sets stopped under mu before it waits,
// so under the same lock either every delivery is counted before Stop
// can reach Wait, or the daemon is stopping and none is spawned. A
// command executed while the daemon stops therefore notifies nobody;
// its deliveries are counted as errors, like ones shed under overload.
func (d *Daemon) dispatchNotifications(ctx *Ctx, cmd *cmdlang.CmdLine) {
	targets := d.notify.list(cmd.Name())
	if len(targets) == 0 {
		return
	}
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		d.notifyErrs.Add(int64(len(targets)))
		return
	}
	d.wg.Add(len(targets))
	d.mu.Unlock()
	tctx := ctx.TraceContext()
	detailStr := cmd.String()
	for _, nt := range targets {
		msg := cmdlang.New(nt.Method).
			SetWord(NotifySourceArg, wordOr(d.cfg.Name)).
			SetWord(NotifyEventArg, cmd.Name()).
			SetString(NotifyDetailArg, detailStr)
		target := nt
		// Deliveries are bounded by the notify semaphore rather than the
		// flow controller: notifications are outbound best-effort, so
		// under overload they are dropped (and counted) instead of queued.
		select {
		case d.notifySem <- struct{}{}:
		default:
			d.notifyErrs.Inc()
			d.wg.Done()
			continue
		}
		d.notifySent.Inc()
		go func() {
			defer func() {
				<-d.notifySem
				d.wg.Done()
			}()
			// Listeners may be gone (ASD lease expiry reaps them);
			// count the failure instead of stalling the fan-out.
			if err := d.pool.SendContext(tctx, target.Addr, msg); err != nil {
				d.notifyErrs.Inc()
			}
		}()
	}
}

// Subscribe is the client-side convenience for §2.5: it asks the
// daemon at addr to invoke method on subscriber (listening at
// subscriberAddr) whenever cmd executes.
func Subscribe(p *Pool, addr, cmd, subscriber, subscriberAddr, method string) error {
	_, err := p.Call(addr, cmdlang.New(CmdAddNotification).
		SetWord("cmd", cmd).
		SetWord("service", subscriber).
		SetString("addr", subscriberAddr).
		SetWord("method", method))
	return err
}
