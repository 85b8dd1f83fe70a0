package hyracks

import (
	"regexp"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vxq/internal/frame"
	"vxq/internal/runtime"
)

// panicSpec is an operator with a bug: the first frame pushed into any of
// its instances makes that instance panic; every later frame, in any
// partition, passes through.
type panicSpec struct{ fired *atomic.Bool }

func (panicSpec) Name() string { return "PANIC" }

func (s panicSpec) Build(ctx *TaskCtx, out Writer) Writer {
	return &panicOp{out: out, fired: s.fired}
}

type panicOp struct {
	out   Writer
	fired *atomic.Bool
}

func (o *panicOp) Open() error  { return o.out.Open() }
func (o *panicOp) Close() error { return o.out.Close() }

func (o *panicOp) Push(fr *frame.Frame) error {
	if o.fired.CompareAndSwap(false, true) {
		panic("operator bug")
	}
	return o.out.Push(fr)
}

// TestOperatorPanicIsQueryError: an operator panic fails its query with an
// error naming the fragment, the partition and the stack, on both
// schedulers, and the sibling tasks — other scan partitions and the
// consumers on the far side of the exchange — stop, so no goroutine is left
// behind.
func TestOperatorPanicIsQueryError(t *testing.T) {
	docs := map[string][]byte{"big.json": ndSensorFile(400, 100)}
	src := &runtime.MemSource{Collections: map[string]map[string][]byte{"/sensors": docs}}
	named := regexp.MustCompile(`fragment 0 partition [0-2] panicked: operator bug`)
	base := goruntime.NumGoroutine()
	for _, staged := range []bool{false, true} {
		job := twoStepGroupByJob(3, 2)
		job.Fragments[0].Ops = append([]OpSpec{panicSpec{fired: new(atomic.Bool)}}, job.Fragments[0].Ops...)
		env := &Env{Source: src, MorselSize: 2 << 10}
		run := RunPipelined
		if staged {
			run = RunStaged
		}
		res, err := run(job, env)
		if err == nil {
			t.Fatalf("staged=%v: panicking operator returned %d rows and no error", staged, len(res.Rows))
		}
		if msg := err.Error(); !named.MatchString(msg) || !strings.Contains(msg, "panic_test.go") {
			t.Errorf("staged=%v: error does not name the fragment, partition and stack:\n%s", staged, msg)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the failed queries, %d before", n, base)
	}
}
