// Package controller is the SDN controller substrate the paper's context
// assumes (§2.1, §8.3): the logically centralized control plane that
// configures multi-vendor devices "as if they are the same". A controller
// holds, per device, the validated VDM and the expert-confirmed VDM-UDM
// binding produced by the assimilation pipeline; an operational intent is
// expressed once against the UDM ("set the BGP peer's AS number to X") and
// the controller translates it per device — pick the bound vendor command,
// enumerate a CGM path through the bound parameter, instantiate it with
// the intent's value, navigate the device's view hierarchy over the CLI
// transport, issue the command, and verify through the show command. This
// is the "last mile" SNA bridges: once a device is assimilated, the
// controller needs no vendor-specific code.
package controller

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"nassim/internal/cgm"
	"nassim/internal/device"
	"nassim/internal/devmodel"
	"nassim/internal/empirical"
	"nassim/internal/mapper"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

func init() {
	reg := telemetry.Default()
	reg.SetHelp("nassim_controller_intents_total", "Intent pushes attempted, by outcome.")
	reg.SetHelp("nassim_controller_roundtrips_total", "CLI lines issued to devices while applying intents.")
	reg.SetHelp("nassim_controller_apply_seconds", "Wall time of one intent push to one device.")
}

// Binding is the confirmed VDM-UDM mapping for one vendor: UDM attribute
// ID -> the vendor parameter that configures it. It is the durable output
// of the Mapper phase after expert review.
type Binding map[string]vdm.Parameter

// Intent is one operational intent expressed against the UDM.
type Intent struct {
	AttrID string // UDM attribute to configure
	Value  string // concrete value
}

// PushResult records how an intent landed on one device.
type PushResult struct {
	Device   string
	CLI      string   // the vendor command instance issued
	Chain    []string // the view-navigation commands issued before it
	Verified bool     // confirmed via the device's show command
}

// deviceEntry is one assimilated device under control.
type deviceEntry struct {
	vendor  string
	model   *vdm.VDM
	binding Binding
	exec    empirical.Executor
	showCmd string
}

// Controller pushes UDM-level intents to assimilated devices.
type Controller struct {
	devices map[string]*deviceEntry
	rng     *rand.Rand
}

// New returns an empty controller. seed drives the (deterministic) filler
// values chosen for parameters an intent does not pin.
func New(seed uint64) *Controller {
	return &Controller{
		devices: map[string]*deviceEntry{},
		rng:     rand.New(rand.NewPCG(seed, 0x5d9c)),
	}
}

// AddDevice registers an assimilated device: its validated VDM, the
// expert-confirmed binding, a CLI transport, and the vendor's show command.
func (c *Controller) AddDevice(name, vendor string, model *vdm.VDM, binding Binding,
	exec empirical.Executor, showCmd string) error {
	if _, dup := c.devices[name]; dup {
		return fmt.Errorf("controller: device %q already registered", name)
	}
	if model == nil || exec == nil {
		return fmt.Errorf("controller: device %q needs a model and a transport", name)
	}
	c.devices[name] = &deviceEntry{
		vendor: vendor, model: model, binding: binding, exec: exec, showCmd: showCmd,
	}
	return nil
}

// Devices lists registered device names, sorted.
func (c *Controller) Devices() []string {
	out := make([]string, 0, len(c.devices))
	for name := range c.devices {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Supports reports whether a device's binding covers a UDM attribute.
func (c *Controller) Supports(device, attrID string) bool {
	d, ok := c.devices[device]
	if !ok {
		return false
	}
	_, ok = d.binding[attrID]
	return ok
}

// planInstance builds the CLI instance realizing the intent on one device:
// a CGM path through the bound parameter, with the intent value at the
// parameter and deterministic filler values elsewhere.
func (c *Controller) planInstance(d *deviceEntry, in Intent) (string, string, error) {
	p, ok := d.binding[in.AttrID]
	if !ok {
		return "", "", fmt.Errorf("controller: %s device has no binding for attribute %q", d.vendor, in.AttrID)
	}
	if p.Corpus < 0 || p.Corpus >= len(d.model.Corpora) {
		return "", "", fmt.Errorf("controller: binding for %q points outside the VDM", in.AttrID)
	}
	g := d.model.Index.Graph(vdm.CorpusID(p.Corpus))
	if g == nil {
		return "", "", fmt.Errorf("controller: command of %q failed syntax validation and cannot be used", in.AttrID)
	}
	// Find the shortest root-to-terminal path traversing the bound
	// parameter (shorter paths skip optional branches the intent does not
	// need).
	var chosen []cgm.PathElem
	for _, path := range g.Paths(128) {
		hasParam := false
		for _, el := range path {
			if el.IsParam && el.Text == p.Name {
				hasParam = true
				break
			}
		}
		if hasParam && (chosen == nil || len(path) < len(chosen)) {
			chosen = path
		}
	}
	if chosen == nil {
		return "", "", fmt.Errorf("controller: no command path reaches parameter %q", p.Name)
	}
	toks := make([]string, 0, len(chosen))
	for _, el := range chosen {
		switch {
		case el.IsParam && el.Text == p.Name:
			if !devmodel.TypeMatches(el.Type, in.Value) {
				return "", "", fmt.Errorf("controller: value %q does not fit parameter %s (%s)",
					in.Value, p.Name, el.Type)
			}
			toks = append(toks, in.Value)
		case el.IsParam:
			toks = append(toks, devmodel.ValueFor(devmodel.Param{Name: el.Text, Type: el.Type}, c.rng))
		default:
			toks = append(toks, el.Text)
		}
	}
	views := d.model.Corpora[p.Corpus].ParentViews
	if len(views) == 0 {
		return "", "", fmt.Errorf("controller: command of %q has no working view", in.AttrID)
	}
	return strings.Join(toks, " "), views[0], nil
}

// countingExec wraps a device transport so Apply can report how many CLI
// lines one intent cost over the wire.
type countingExec struct {
	ex empirical.Executor
	n  int
}

// Exec implements empirical.Executor.
func (ce *countingExec) Exec(line string) (device.Response, error) {
	ce.n++
	return ce.ex.Exec(line)
}

// Apply pushes one intent to one device: translate, navigate, issue,
// verify. The returned PushResult records exactly what went over the wire.
func (c *Controller) Apply(device string, in Intent) (res *PushResult, err error) {
	_, span := telemetry.Span(context.Background(), "controller.apply",
		"device", device, "attr", in.AttrID)
	defer span.End()
	start := time.Now()
	d, ok := c.devices[device]
	if !ok {
		return nil, fmt.Errorf("controller: unknown device %q", device)
	}
	ex := &countingExec{ex: d.exec}
	defer func() {
		result := "ok"
		if err != nil {
			result = "error"
		}
		telemetry.GetCounter("nassim_controller_intents_total", "result", result).Inc()
		telemetry.GetCounter("nassim_controller_roundtrips_total").Add(int64(ex.n))
		telemetry.GetHistogram("nassim_controller_apply_seconds", nil).ObserveDuration(time.Since(start))
		telemetry.Logger(telemetry.ComponentController).Debug("applied intent",
			"device", device, "attr", in.AttrID, "result", result,
			"roundtrips", ex.n, "elapsed", time.Since(start))
	}()
	inst, view, err := c.planInstance(d, in)
	if err != nil {
		return nil, err
	}
	chain, err := empirical.EnterChain(d.model, view, c.rng)
	if err != nil {
		return nil, err
	}
	res = &PushResult{Device: device, CLI: inst, Chain: chain}
	if _, err := ex.Exec("return"); err != nil {
		return nil, fmt.Errorf("controller: %s: %w", device, err)
	}
	for _, line := range chain {
		resp, err := ex.Exec(line)
		if err != nil {
			return nil, fmt.Errorf("controller: %s: %w", device, err)
		}
		if !resp.OK {
			return res, fmt.Errorf("controller: %s rejected navigation %q: %s", device, line, resp.Msg)
		}
	}
	resp, err := ex.Exec(inst)
	if err != nil {
		return nil, fmt.Errorf("controller: %s: %w", device, err)
	}
	if !resp.OK {
		return res, fmt.Errorf("controller: %s rejected %q: %s", device, inst, resp.Msg)
	}
	show, err := ex.Exec(d.showCmd)
	if err != nil {
		return nil, fmt.Errorf("controller: %s: %w", device, err)
	}
	res.Verified = show.Shows(inst)
	if !res.Verified {
		return res, fmt.Errorf("controller: %s accepted %q but the running config does not show it", device, inst)
	}
	return res, nil
}

// ApplyAll pushes one intent to every registered device whose binding
// covers the attribute, in device-name order — the controller's
// "configure multi-vendor devices as if they are the same" operation.
// It returns the per-device results; an error on one device does not stop
// the others (the failed device's result carries a nil entry and the
// first error is returned alongside).
func (c *Controller) ApplyAll(in Intent) ([]*PushResult, error) {
	var firstErr error
	var out []*PushResult
	for _, name := range c.Devices() {
		if !c.Supports(name, in.AttrID) {
			continue
		}
		res, err := c.Apply(name, in)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if res != nil {
			out = append(out, res)
		}
	}
	return out, firstErr
}

// BindingFromAnnotations builds a binding from expert-confirmed
// annotations (later confirmations win).
func BindingFromAnnotations(anns []mapper.Annotation) Binding {
	b := Binding{}
	for _, a := range anns {
		b[a.AttrID] = a.Param
	}
	return b
}
