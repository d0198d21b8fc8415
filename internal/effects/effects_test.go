package effects

// Table-driven unit tests for the points-to model, MOD/REF collection, and
// the pairwise alias verdicts, with exact expected access sets.

import (
	"strings"
	"testing"

	"phloem/internal/ir"
	"phloem/internal/source"
)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	fn, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := source.Check(fn); err != nil {
		t.Fatalf("check: %v", err)
	}
	return Analyze(fn)
}

func verdictOf(t *testing.T, a *Analysis, x, y string) ir.AliasVerdict {
	t.Helper()
	for _, pr := range a.Pairs {
		if pr.A == x && pr.B == y || pr.A == y && pr.B == x {
			return pr.Verdict
		}
	}
	t.Fatalf("no pair %s/%s in %v", x, y, a.Pairs)
	return 0
}

func accessStrings(list []Access) []string {
	var out []string
	for _, a := range list {
		out = append(out, a.String())
	}
	return out
}

func requireAccesses(t *testing.T, got []Access, want ...string) {
	t.Helper()
	gs := accessStrings(got)
	if len(gs) != len(want) {
		t.Fatalf("got %v, want %v", gs, want)
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Errorf("access %d = %q, want %q", i, gs[i], want[i])
		}
	}
}

func TestVerdicts(t *testing.T) {
	cases := []struct {
		name string
		src  string
		a, b string
		want ir.AliasVerdict
	}{
		{
			// The language has no call sites, so "two params bound to the
			// same argument" is modeled by unqualified params of one kind:
			// both point to the shared world location. restrict severs it.
			name: "restrict pair",
			src: `#pragma phloem
void k(int* restrict a, int* restrict b, int n) {
  for (int i = 0; i < n; i = i + 1) {
    a[i] = b[i];
  }
}`,
			a: "a", b: "b", want: ir.AliasDisjoint,
		},
		{
			name: "kind separation",
			src: `#pragma phloem
void k(int* a, float* f, int n) {
  for (int i = 0; i < n; i = i + 1) {
    f[i] = f[i] + 1.0;
    a[i] = i;
  }
}`,
			a: "a", b: "f", want: ir.AliasDisjoint,
		},
		{
			name: "read-only overlap",
			src: `#pragma phloem
void k(int* a, int* b, int* restrict out, int n) {
  for (int i = 0; i < n; i = i + 1) {
    out[i] = a[i] + b[i];
  }
}`,
			a: "a", b: "b", want: ir.AliasNoConflict,
		},
		{
			name: "same affine index is benign",
			src: `#pragma phloem
void k(int* a, int* b, int n) {
  for (int i = 0; i < n; i = i + 1) {
    a[i] = b[i] + 1;
  }
}`,
			a: "a", b: "b", want: ir.AliasBenign,
		},
		{
			name: "swap partners are epoch-synchronized",
			src: `#pragma phloem
void k(int* restrict a, int* restrict b, int n) {
  for (int it = 0; it < n; it = it + 1) {
    for (int i = 0; i < n; i = i + 1) {
      b[i] = a[i] + 1;
    }
    swap(a, b);
  }
}`,
			a: "a", b: "b", want: ir.AliasSwapSync,
		},
		{
			name: "indirect store through loaded index",
			src: `#pragma phloem
void k(int* idx, int* data, int n) {
  for (int i = 0; i < n; i = i + 1) {
    int j = idx[i];
    data[j] = i;
  }
}`,
			a: "idx", b: "data", want: ir.AliasMayConflict,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := analyze(t, c.src)
			if got := verdictOf(t, a, c.a, c.b); got != c.want {
				t.Errorf("verdict(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
			}
		})
	}
}

func TestVerdictDistanceOneNotBenign(t *testing.T) {
	a := analyze(t, `#pragma phloem
void k(int* a, int* b, int n) {
  for (int i = 0; i < n; i = i + 1) {
    a[i] = b[i + 1];
  }
}`)
	if got := verdictOf(t, a, "a", "b"); got != ir.AliasMayConflict {
		t.Errorf("distance-1 pair should be may-alias, got %s", got)
	}
}

func TestModRefSets(t *testing.T) {
	a := analyze(t, `#pragma phloem
void k(int* idx, int* restrict data, int* restrict out, int n) {
  for (int i = 0; i < n; i = i + 1) {
    int j = idx[i];
    data[j] = data[j] + 1;
    out[i] = j;
  }
}`)
	mods, refs := a.ModRef("idx")
	requireAccesses(t, mods)
	requireAccesses(t, refs, "ref idx[i] (line 4)")

	mods, refs = a.ModRef("data")
	requireAccesses(t, mods, "mod data[#indirect] (line 5)")
	requireAccesses(t, refs, "ref data[#indirect] (line 5)")

	mods, refs = a.ModRef("out")
	requireAccesses(t, mods, "mod out[i] (line 6)")
	requireAccesses(t, refs)
}

func TestErrOnlyForPhloemFunctions(t *testing.T) {
	src := `void k(int* idx, int* data, int n) {
  for (int i = 0; i < n; i = i + 1) {
    int j = idx[i];
    data[j] = i;
  }
}`
	a := analyze(t, src)
	if err := a.Err(); err != nil {
		t.Errorf("non-phloem function should not be rejected: %v", err)
	}
	b := analyze(t, "#pragma phloem\n"+src)
	err := b.Err()
	if err == nil {
		t.Fatal("phloem function with a may-alias pair must be rejected")
	}
	if !strings.Contains(err.Error(), "[E0]") {
		t.Errorf("error should carry the E0 code: %v", err)
	}
}

func TestWarningsOnlyForProvenParams(t *testing.T) {
	a := analyze(t, `#pragma phloem
void k(int* rows, int* cols, float* restrict y, int n) {
  for (int i = 0; i < n; i = i + 1) {
    y[i] = (float)(rows[i] + cols[i]);
  }
}`)
	ws := a.Warnings()
	if len(ws) != 2 {
		t.Fatalf("want warnings for rows and cols, got %v", ws)
	}
	for _, w := range ws {
		if w.Code != "E0" || w.Line != 2 {
			t.Errorf("warning should be E0 at the declaration line: %+v", w)
		}
	}
	// A param in a may-alias pair must not be called safe.
	b := analyze(t, `#pragma phloem
void k(int* idx, int* data, int n) {
  for (int i = 0; i < n; i = i + 1) {
    int j = idx[i];
    data[j] = i;
  }
}`)
	if ws := b.Warnings(); len(ws) != 0 {
		t.Errorf("unproven params should not get a proved-safe warning: %v", ws)
	}
}

// ModRef returns the MOD and REF access lists of one parameter, in source
// order (an entry with both flags appears in both lists).
func (a *Analysis) ModRef(param string) (mods, refs []Access) {
	for _, ac := range a.Accesses {
		if ac.Param != param {
			continue
		}
		if ac.Mod {
			mods = append(mods, ac)
		}
		if ac.Ref {
			refs = append(refs, ac)
		}
	}
	return mods, refs
}
