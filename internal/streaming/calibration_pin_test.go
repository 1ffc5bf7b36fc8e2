package streaming

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/deploy"
	"mpi4spark/internal/vtime"
)

// TestCalibrationPinnedStreaming records the streaming constants no run
// varies as a default Config sees them: the blocks a receiver cuts per batch
// (and the stamp the last one is registered at) and the PID estimator's
// gains, through a fixed update sequence. Moving where those values live
// must leave this test passing unedited (see harness.TestCalibrationPinned).
func TestCalibrationPinnedStreaming(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	cl, err := deploy.StartCluster(deploy.Config{
		Fabric:      f,
		WorkerNodes: []*fabric.Node{f.AddNode("w0")},
		MasterNode:  f.AddNode("master"),
		DriverNode:  f.AddNode("driver"),
		Backend:     spark.BackendVanilla,
		Spark:       spark.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sc, err := NewContext(cl.Ctx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := Receive(sc, ReceiverConfig[int64]{Rate: 100_000, Gen: func(seq int64) int64 { return seq }})
	if err != nil {
		t.Fatal(err)
	}
	Foreach(in, func(int, []int64) error { return nil })
	if err := sc.Run(1); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()[0]
	if got, want := fmt.Sprintf("%d blocks, %d events, ready at +%d ns", st.Blocks, st.Events, st.Ready-sc.epoch), "4 blocks, 200 events, ready at +2111225 ns"; got != want {
		t.Errorf("first batch: %s, want %s", got, want)
	}

	// completedAt, events, processing time, scheduling delay per update.
	ms := func(n float64) vtime.Stamp { return vtime.Stamp(n * float64(time.Millisecond)) }
	steps := [][4]vtime.Stamp{
		{ms(10), 1000, ms(1), ms(1)},
		{ms(20), 1000, ms(4), ms(1)},
		{ms(30), 3000, ms(5), 0},
		{ms(35), 500, ms(2), ms(3)},
		{ms(36), 10, ms(9), ms(50)},
	}
	got := ""
	for _, s := range steps {
		rate, ok := sc.est.update(s[0], int64(s[1]), s[2], s[3])
		got += strconv.FormatFloat(rate, 'g', -1, 64) + " " + strconv.FormatBool(ok) + "; "
	}
	if want := "900000 true; 225000 true; 600000 true; 175000 true; 1000 true; "; got != want {
		t.Errorf("PID rates\n got %s\nwant %s", got, want)
	}
}
