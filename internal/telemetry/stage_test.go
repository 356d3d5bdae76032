package telemetry

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"nassim/internal/benchdiff"
)

// nilCtx keeps test call sites short.
func nilCtx() context.Context { return context.Background() }

func TestStageTimerRecords(t *testing.T) {
	st := NewStageTimer()
	st.Observe(StageParse, 10*time.Millisecond)
	st.Observe(StageParse, 30*time.Millisecond)
	st.Observe(StageHierarchy, 5*time.Millisecond)
	recs := st.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != StageParse || recs[0].Calls != 2 || recs[0].AvgNS != (20*time.Millisecond).Nanoseconds() {
		t.Fatalf("parse record wrong: %+v", recs[0])
	}
	if recs[1].Name != StageHierarchy || recs[1].Calls != 1 {
		t.Fatalf("hierarchy record wrong: %+v", recs[1])
	}
	if st.Total() != 45*time.Millisecond {
		t.Fatalf("total = %v", st.Total())
	}
}

func TestStageTimerTimeAndStart(t *testing.T) {
	st := NewStageTimer()
	st.Time("a", func() { time.Sleep(time.Millisecond) })
	stop := st.Start("b")
	stop()
	recs := st.Records()
	if len(recs) != 2 || recs[0].TotalNS <= 0 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestStageTable(t *testing.T) {
	st := NewStageTimer()
	st.Observe("parse", time.Second)
	st.Observe("map", time.Second)
	table := st.Table()
	for _, want := range []string{"stage", "parse", "map", "50.0%", "total"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestStageBenchRows(t *testing.T) {
	st := NewStageTimer()
	st.Observe(StageParse, 3*time.Millisecond)
	st.Observe(StageParse, time.Millisecond)
	want := []benchdiff.Row{
		{Name: "stage.parse.avg_ns", Unit: "ns", Better: benchdiff.Lower, Value: 2e6,
			Tol: benchdiff.SingleShotTolerance, Floor: benchdiff.SingleShotFloorNS},
		{Name: "stage.parse.calls", Unit: "count", Better: benchdiff.Info, Value: 2},
	}
	if got := st.BenchRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %+v\nwant %+v", got, want)
	}
}
