package main

// An untraced run measures in parts: its measuring time is split over
// `parts` processes, run one after the other, each of which sets the
// workload up afresh and measures its share. The figures are taken over
// the parts' samples together. A process keeps some state for its whole
// life that moves its speed as a whole: on short, three 8 s phases in one
// process agreed within 5%, while whole processes differed by up to 15%.
// Parts average that over three processes within one run. Only one
// process generates load at a time.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro"
)

const (
	// parts is how many processes an untraced run measures in.
	parts = 3
	// partEnv, set to 1, makes the program measure one part and write its
	// samples to standard output instead of printing a result.
	partEnv = "PERFBENCH_PART"
)

// measureParts measures for d in parts child processes of this program
// and joins their phases into one, each part's steps placed after the
// previous part's.
func (b *bench) measureParts(ctx context.Context, d time.Duration) (*phase, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &phase{}
	for i := 0; i < parts; i++ {
		cmd := exec.CommandContext(ctx, exe,
			"--workload", b.cfg.workload,
			"--seed", strconv.FormatInt(b.cfg.seed, 10),
			"--seconds", strconv.FormatFloat((d/parts).Seconds(), 'f', -1, 64),
			"--trace", "0",
			"--wrong-ref", strconv.Itoa(b.cfg.wrongRef))
		cmd.Env = append(os.Environ(), partEnv+"=1")
		cmd.Stderr = os.Stderr
		// A part outlives no parent: if this process dies, so does it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			p.free()
			return nil, fmt.Errorf("part %d of %d: %w", i+1, parts, err)
		}
		if err := p.decodePart(out); err != nil {
			p.free()
			return nil, fmt.Errorf("part %d of %d: %w", i+1, parts, err)
		}
	}
	return p, nil
}

// runPart is the child's side of measureParts: one set-up, with reference
// answers, and a measuring phase of cfg.duration, written to out.
func runPart(ctx context.Context, cfg config, out io.Writer) error {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	b := newBench(w, cfg)
	inst, _, err := b.setUp(ctx, func(e *gbj.Engine) error { return e.Exec(w.script) }, true)
	if err != nil {
		return err
	}
	defer inst.close()
	w.script = ""
	runtime.GC()
	p, err := b.measure(ctx, inst, cfg.duration, nil)
	if err != nil {
		return err
	}
	defer p.free()
	_, err = out.Write(p.encode())
	return err
}

// encode writes the phase's counts, elapsed time and steps as
// little-endian 64-bit integers.
func (p *phase) encode() []byte {
	buf := make([]byte, 0, 8*(6+3*len(p.steps)))
	for _, v := range []int64{int64(p.ops), int64(p.failed), int64(p.refused), int64(p.wrong), int64(p.elapsed), int64(len(p.steps))} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, st := range p.steps {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.end))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.lat))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.ops))
	}
	return buf
}

// decodePart adds an encoded phase to p, its steps shifted to end after
// p's elapsed time.
func (p *phase) decodePart(data []byte) error {
	word := func(i int) int64 { return int64(binary.LittleEndian.Uint64(data[8*i:])) }
	if len(data) < 8*6 || int64(len(data)) != 8*(6+3*word(5)) {
		return errors.New("samples written by the part are cut short")
	}
	for i := 0; i < int(word(5)); i++ {
		j := 6 + 3*i
		var err error
		p.steps, err = appendSample(p.steps, stepSample{end: p.elapsed + time.Duration(word(j)), lat: time.Duration(word(j + 1)), ops: int(word(j + 2))})
		if err != nil {
			return err
		}
	}
	p.ops += int(word(0))
	p.failed += int(word(1))
	p.refused += int(word(2))
	p.wrong += int(word(3))
	p.elapsed += time.Duration(word(4))
	return nil
}
