// Package device simulates a configurable network device. The paper's
// empirical validation (§5.3) issues generated CLI instances to real
// devices over Telnet and verifies them with show commands; real routers
// are not available here, so this package provides the closest equivalent
// that exercises the same code path: a device whose command acceptor is
// built from the ground-truth model (view stack, per-view command sets,
// template matching), a configuration store with show-command readback,
// and a line-oriented TCP server/client pair standing in for the Telnet
// transport.
package device

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"nassim/internal/cgm"
	"nassim/internal/devmodel"
)

// Device is a simulated network device instantiated from a ground-truth
// vendor model. A Device hosts any number of concurrent sessions; the
// configuration store is shared and mutex-protected.
type Device struct {
	model  *devmodel.Model
	index  *cgm.Index
	enters map[string][]string // command ID -> views it enables
	byID   map[string]*devmodel.Command

	mu sync.Mutex
	// config is the running configuration as rendered lines, stanza depth
	// as leading spaces. It is only appended to or replaced, never written
	// in place, so a capped slice of it is a stable view (see showConfig).
	config []string
}

// New builds a device from a model. Commands whose templates fail syntax
// validation (the injected manual errors live in the *manual*, not the
// device) are still accepted: the device is built from the clean
// ground-truth templates.
func New(m *devmodel.Model) (*Device, error) {
	d := &Device{
		model:  m,
		index:  cgm.NewIndex(),
		enters: map[string][]string{},
		byID:   map[string]*devmodel.Command{},
	}
	for _, c := range m.Commands {
		if err := d.index.Add(c.ID, c.Template, nil); err != nil {
			return nil, fmt.Errorf("device: command %s: %w", c.ID, err)
		}
		d.byID[c.ID] = c
	}
	for _, v := range m.Views {
		if v.Enter != "" {
			d.enters[v.Enter] = append(d.enters[v.Enter], v.Name)
		}
	}
	return d, nil
}

// CloneFresh returns a new device sharing this device's immutable command
// acceptor (template index, enter map, command table) with an empty
// configuration store. Fleets instantiate hundreds of same-vendor devices;
// rebuilding the CGM index per device would dominate fleet construction,
// while the acceptor structures are read-only after New and safe to share.
func (d *Device) CloneFresh() *Device {
	return &Device{model: d.model, index: d.index, enters: d.enters, byID: d.byID}
}

// SeedConfig replaces the running configuration with a copy of the given
// lines, bypassing the command acceptor: leading spaces are the stanza
// depth, and each line is stored as given. This is the fleet simulator's
// drift injection point — it plants an *observed* state (including lines
// no template matches, the way a legacy box accretes unmanaged config)
// that the reconciler then reads back over the wire and diffs against
// desired state.
func (d *Device) SeedConfig(lines []string) {
	cfg := slices.Clone(lines)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.config = cfg
}

// Vendor returns the device's vendor.
func (d *Device) Vendor() devmodel.Vendor { return d.model.Vendor }

// ShowConfigCommand returns the vendor's wording of the running-config
// readback command.
func (d *Device) ShowConfigCommand() string {
	switch d.model.Vendor {
	case devmodel.Cisco:
		return "show running-config"
	case devmodel.Nokia:
		return "admin display-config"
	default:
		return "display current-configuration"
	}
}

// showConfig returns the running configuration as a view capped at its
// current length: later appends land past the cap and a re-seed swaps the
// slice, so the view's lines never change and no copy is needed.
func (d *Device) showConfig() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.config[:len(d.config):len(d.config)]
}

// record appends an accepted line, rendered once at its stanza depth.
func (d *Device) record(depth int, text string) {
	line := strings.Repeat(" ", depth) + text
	d.mu.Lock()
	defer d.mu.Unlock()
	d.config = append(d.config, line)
}

// Session is one CLI session on the device, with its own view stack.
// Each stack level is a set of view names: when a manual documents one
// enter command as enabling several views (the Figure 7 ambiguity), the
// device state after that command accepts the commands of all of them.
// Sessions are not safe for concurrent use; open one per goroutine.
type Session struct {
	dev   *Device
	stack [][]string // current view path, root first
}

// NewSession opens a session positioned in the device's root view.
func (d *Device) NewSession() *Session {
	telSessions.Inc()
	return &Session{dev: d, stack: [][]string{{d.model.RootView}}}
}

// View returns the session's current working view (the first name when the
// level is a merged multi-view state).
func (s *Session) View() string { return s.stack[len(s.stack)-1][0] }

// ViewSet returns all view names of the current level.
func (s *Session) ViewSet() []string {
	top := s.stack[len(s.stack)-1]
	out := make([]string, len(top))
	copy(out, top)
	return out
}

// Depth returns the view-stack depth below the root view.
func (s *Session) Depth() int { return len(s.stack) - 1 }

// Response is the outcome of executing one CLI line.
type Response struct {
	OK  bool
	Msg string // error message when !OK
	// Data is the configuration dump of a show command. It is read-only:
	// from an in-process session it is a view of the device's running
	// configuration, shared with every other reader.
	Data []string
	// Depth is the session's view-stack depth after the command, or -1
	// when unknown (ERR and DATA responses on the wire protocol). The
	// resilient client uses it to track the enter chain it must replay
	// when re-establishing a dropped session.
	Depth int
}

// Exec executes one CLI line in the session: view navigation (quit /
// return), configuration readback (the vendor's show command), or a
// configuration command matched against the templates valid in the current
// view. Matched commands are recorded in the running configuration;
// commands that enable a sub-view push it onto the view stack.
func (s *Session) Exec(line string) Response {
	resp := s.exec(line)
	resp.Depth = s.Depth()
	if resp.OK {
		telExecOK.Inc()
	} else {
		telExecFail.Inc()
	}
	return resp
}

// ExecContext is Exec honoring the context: a cancelled or expired ctx
// rejects the line before it reaches the device. In-process execution is
// not interruptible mid-command (there is no transport to time out), so
// the check happens at the command boundary, mirroring how the TCP client
// applies its deadline per exchange.
func (s *Session) ExecContext(ctx context.Context, line string) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	return s.Exec(line), nil
}

func (s *Session) exec(line string) Response {
	line = strings.TrimSpace(line)
	switch {
	case line == "":
		return Response{OK: true}
	case line == "quit" || line == "exit":
		if len(s.stack) > 1 {
			s.stack = s.stack[:len(s.stack)-1]
		}
		return Response{OK: true}
	case line == "return":
		s.stack = s.stack[:1]
		return Response{OK: true}
	case line == s.dev.ShowConfigCommand():
		return Response{OK: true, Data: s.dev.showConfig()}
	}
	cur := map[string]bool{}
	for _, v := range s.stack[len(s.stack)-1] {
		cur[v] = true
	}
	var inView []string
	for _, id := range s.dev.index.Match(line) {
		c := s.dev.byID[id]
		for _, v := range c.Views {
			if cur[v] {
				inView = append(inView, id)
				break
			}
		}
	}
	if len(inView) == 0 {
		return Response{OK: false, Msg: fmt.Sprintf("unrecognized command in %s: %q", s.View(), line)}
	}
	id := inView[0]
	s.dev.record(s.Depth(), line)
	if views := s.dev.enters[id]; len(views) > 0 {
		s.stack = append(s.stack, views)
	}
	return Response{OK: true}
}

// Shows reports whether a line of the show dump, trimmed of surrounding
// whitespace, equals line — the show-command verification step of §5.3's
// generated-instance testing. It scans newest first: an instance just
// accepted is the dump's last line.
func (r Response) Shows(line string) bool {
	for i := len(r.Data) - 1; i >= 0; i-- {
		if strings.TrimSpace(r.Data[i]) == line {
			return true
		}
	}
	return false
}

// HasConfigLine reports whether the running configuration contains the
// line, ignoring surrounding whitespace on both sides.
func (d *Device) HasConfigLine(line string) bool {
	return Response{Data: d.showConfig()}.Shows(strings.TrimSpace(line))
}
