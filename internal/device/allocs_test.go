//go:build !race

package device

import (
	"fmt"
	"strings"
	"testing"

	"nassim/internal/devmodel"
)

// TestShowConfigAllocs pins the show command at zero allocations whatever
// the configuration's size and indentation: it hands out a view of the
// running configuration instead of rendering a copy per readback, which
// made live testing quadratic in the number of instances.
func TestShowConfigAllocs(t *testing.T) {
	_, d := testDevice(t, devmodel.Huawei)
	lines := make([]string, 1000)
	for i := range lines {
		lines[i] = strings.Repeat(" ", i%3) + fmt.Sprintf("line %d", i)
	}
	d.SeedConfig(lines)
	s := d.NewSession()
	show := d.ShowConfigCommand()
	var resp Response
	if n := testing.AllocsPerRun(100, func() { resp = s.Exec(show) }); n != 0 {
		t.Errorf("show allocates %.0f times per readback, want 0", n)
	}
	if !resp.OK || len(resp.Data) != len(lines) || resp.Data[2] != "  line 2" {
		t.Fatalf("show = %v with %d lines, line 2 %q", resp.OK, len(resp.Data), resp.Data[2])
	}
}
