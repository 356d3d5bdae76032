// Empirical: the §5.3 validation loop against a live device — validate the
// derived VDM with configuration files from running devices, then exercise
// the commands no running device uses by generating CGM instances and
// issuing them to a (simulated) device over TCP, verifying each through
// the device's show command.
//
//	go run ./examples/empirical
package main

import (
	"context"
	"fmt"

	"nassim"
)

// errlog is the structured logger errors are reported through; nassim.Fatal
// initializes stderr logging on first use so failures are never silent.
var errlog = nassim.Logger("examples/empirical")

func main() {
	const scale = 0.05
	ctx := context.Background()

	// Build the validated VDM for Huawei.
	asr, err := nassim.AssimilateVendor(ctx, "Huawei", scale)
	if err != nil {
		nassim.Fatal(errlog, err.Error())
	}
	fmt.Println("validated model:", asr.VDM.Summary())

	// Stage 1 (Figure 8): validate against datacenter configuration files.
	files, ok := nassim.SyntheticConfigs(asr.Model, scale)
	if !ok {
		nassim.Fatal(errlog, "no configuration corpus for vendor")
	}
	rep := nassim.ValidateConfigs(ctx, asr.VDM, files)
	fmt.Println("config-file validation:", rep)
	fmt.Printf("datacenter skew: the fleet exercises %d of %d command templates\n",
		rep.UsedTemplates(), len(asr.VDM.Corpora))

	// Stage 2: the unused commands are tested on a live device. Spin up
	// the simulated device over TCP (the paper reaches real devices over
	// Telnet) and drive the generated instances through it.
	dev, err := nassim.NewDevice(asr.Model)
	if err != nil {
		nassim.Fatal(errlog, err.Error())
	}
	srv, err := nassim.ServeDevice(dev, "127.0.0.1:0")
	if err != nil {
		nassim.Fatal(errlog, err.Error())
	}
	defer srv.Close()
	fmt.Println("simulated device listening on", srv.Addr())

	client, err := nassim.DialDevice(srv.Addr())
	if err != nil {
		nassim.Fatal(errlog, err.Error())
	}
	defer client.Close()
	fmt.Printf("connected to %s device; readback via %q\n", client.Vendor(), dev.ShowConfigCommand())

	live, err := nassim.TestUnusedCommands(ctx, asr.VDM, rep.UsedCorpora, client, dev.ShowConfigCommand(), 2, 42)
	if err != nil {
		nassim.Fatal(errlog, err.Error())
	}
	fmt.Printf("live testing: %d generated instances issued, %d accepted, %d verified via show command\n",
		live.Tested, live.Accepted, live.Verified)
	if live.Degraded {
		// A device whose transport kept failing degrades the run: the
		// counts above cover what was tested before it stopped.
		fmt.Printf("live testing degraded (%s) after %d transport failures\n",
			live.DegradedReason, live.ExchangeFailures)
	}
	fmt.Printf("%d verified instances become empirical configurations for the next validation round\n",
		len(live.NewConfigLines))
	for i, line := range live.NewConfigLines {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(live.NewConfigLines)-5)
			break
		}
		fmt.Printf("  verified: %s\n", line)
	}
}
