package nassim

import (
	"nassim/internal/controller"
	"nassim/internal/empirical"
)

// This file exposes the SDN-controller substrate (§2.1, §8.3): once a
// device is assimilated — validated VDM plus expert-confirmed VDM-UDM
// binding — the controller configures it through UDM-level intents with no
// vendor-specific code, which is the whole point of SNA.

type (
	// Controller pushes UDM-level intents to assimilated devices.
	Controller = controller.Controller
	// Intent is one operational intent against the UDM.
	Intent = controller.Intent
	// Binding is the confirmed VDM-UDM mapping for one vendor.
	Binding = controller.Binding
)

// NewController returns an empty controller; seed drives the deterministic
// filler values for parameters an intent does not pin.
func NewController(seed uint64) *Controller { return controller.New(seed) }

// BindingFromAnnotations builds a device binding from expert-confirmed
// annotations (the Mapper phase's reviewed output; later confirmations win).
func BindingFromAnnotations(anns []Annotation) Binding {
	return controller.BindingFromAnnotations(anns)
}

// RegisterDevice adds an assimilated device to the controller with a CLI
// transport (a *DeviceClient over TCP, or SessionExecutor for in-process).
func RegisterDevice(c *Controller, name, vendor string, model *VDM, b Binding,
	exec empirical.Executor, showCmd string) error {
	return c.AddDevice(name, vendor, model, b, exec, showCmd)
}
