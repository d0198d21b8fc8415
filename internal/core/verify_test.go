package core_test

// Compile must reject pipelines the static verifier finds broken, and
// Options.SkipVerify must be an effective escape hatch. Violations are
// injected with Options.PostBuild, the same hook `phloemc -lint` uses for
// its demonstration mode.

import (
	"errors"
	"strings"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/ir"
	"phloem/internal/pipeline"
	"phloem/internal/workloads"
)

// injectRogueCode inserts an enq_ctrl with an application code no consumer
// dispatches, next to the first control enqueue it finds: the consumer's
// dispatch treats unknown codes as stream end, so the code would silently
// truncate the stream mid-flight (rule C2).
func injectRogueCode(pl *pipeline.Pipeline) {
	if st, i, rogue := rogueSite(pl); st != nil {
		st.Body = append(st.Body[:i:i], append([]ir.Stmt{rogue}, st.Body[i:]...)...)
	}
}

// overwriteRogueCode overwrites that first control enqueue in place with
// injectRogueCode's rogue one, keeping the stage's Body slice.
func overwriteRogueCode(pl *pipeline.Pipeline) {
	if st, i, rogue := rogueSite(pl); st != nil {
		st.Body[i] = rogue
	}
}

// rogueSite finds the first control enqueue of pl, and returns its stage,
// its index in the stage's Body and the rogue enq_ctrl for its queue.
func rogueSite(pl *pipeline.Pipeline) (*pipeline.Stage, int, ir.Stmt) {
	for _, st := range pl.Stages {
		for i, s := range st.Body {
			if ec, ok := s.(*ir.EnqCtrl); ok {
				return st, i, &ir.EnqCtrl{Q: ec.Q, Code: arch.CtrlUser + 7}
			}
		}
	}
	return nil, 0, nil
}

func TestCompileRejectsInjectedProtocolViolation(t *testing.T) {
	opt := core.DefaultOptions()
	opt.PostBuild = injectRogueCode
	_, err := core.CompileSource(workloads.BFSSource, opt)
	if err == nil {
		t.Fatal("Compile accepted a pipeline with stripped control markers")
	}
	if !strings.Contains(err.Error(), "static verification") {
		t.Fatalf("error should come from the verifier, got: %v", err)
	}
}

// TestVerifySeesInPlaceEdit: a PostBuild hook that overwrites a statement
// of a stage's Body in place is verified like one that replaces the Body,
// also when commopt has already read the stages' programs.
func TestVerifySeesInPlaceEdit(t *testing.T) {
	for _, on := range []bool{false, true} {
		opt := core.DefaultOptions()
		opt.CommOpt = on
		opt.PostBuild = overwriteRogueCode
		_, err := core.CompileSource(workloads.BFSSource, opt)
		if !errors.Is(err, core.ErrVerify) {
			t.Errorf("commopt=%v: an in-place rogue enq_ctrl compiled with error %v, want %v", on, err, core.ErrVerify)
		}
	}
}

func TestSkipVerifyEscapeHatch(t *testing.T) {
	opt := core.DefaultOptions()
	opt.PostBuild = injectRogueCode
	opt.SkipVerify = true
	res, err := core.CompileSource(workloads.BFSSource, opt)
	if err != nil {
		t.Fatalf("SkipVerify should let the broken pipeline through: %v", err)
	}
	if res.Pipeline == nil {
		t.Fatal("no pipeline returned")
	}
}

func TestCompileCleanStillPasses(t *testing.T) {
	if _, err := core.CompileSource(workloads.BFSSource, core.DefaultOptions()); err != nil {
		t.Fatalf("clean compile rejected: %v", err)
	}
}
