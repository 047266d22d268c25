package dsa_test

import (
	"encoding/binary"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/armlite"
	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

// oldCheckpoints are mid-run mm_32x32 checkpoints written by the last
// build that had the adaptive takeover mode, one under the extended
// DSA and one under the adaptive config (it carries the dsa.policy
// section). Their dsa.engine config encoding still holds the policy
// fields that build serialized.
var oldCheckpoints = []string{
	"testdata/checkpoints/old-extended-mm_32x32.dsnp",
	"testdata/checkpoints/old-adaptive-mm_32x32.dsnp",
}

// mm32 is the workload every checkpoint here belongs to.
func mm32(tb testing.TB) *workloads.Workload {
	tb.Helper()
	w, err := workloads.ByName("mm_32x32")
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// restoreExtended parses b and restores it into a fresh extended
// system running prog.
func restoreExtended(tb testing.TB, prog *armlite.Program, b []byte) error {
	rd, err := snapshot.Parse(b)
	if err != nil {
		return err
	}
	sys, err := dsa.NewSystem(prog, cpu.DefaultConfig(), dsa.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return sys.RestoreState(rd)
}

// TestOldCheckpointsMismatch pins the upgrade path of the adaptive
// mode's removal: an old checkpoint still parses (snapshot.Version is
// unchanged), but restoring it into an extended system fails the
// config gate with ErrMismatch, so a resume restarts from zero.
func TestOldCheckpointsMismatch(t *testing.T) {
	prog := mm32(t).Scalar()
	for _, path := range oldCheckpoints {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		err = restoreExtended(t, prog, b)
		if !errors.Is(err, snapshot.ErrMismatch) || !strings.Contains(err.Error(), "different DSA configuration") {
			t.Errorf("%s: restore error = %v, want the DSA config mismatch", path, err)
		}
	}
}

// FuzzSnapshotParse drives the decoders a resume runs on checkpoint
// bytes: the container parse, then a full System.RestoreState into a
// fresh extended system. Each input is tried as given, which exercises
// the container's own checks, and resealed (framing walked, every CRC
// recomputed), which reaches every section decoder. Any input must end
// in a clean restore or one of the snapshot package's typed errors,
// never a panic. The seeds are the old checkpoints and one written by
// this build.
func FuzzSnapshotParse(f *testing.F) {
	for _, path := range oldCheckpoints {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	w := mm32(f)
	f.Add(midRunCheckpoint(f, w))
	prog := w.Scalar()
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, reseal(b)} {
			if in == nil {
				continue
			}
			if err := restoreExtended(t, prog, in); err != nil && !typedRestoreError(err) {
				t.Fatalf("untyped restore error: %v", err)
			}
		}
	})
}

// typedRestoreError reports whether err is one of the snapshot
// package's typed errors (ErrTruncated wraps ErrCorrupt).
func typedRestoreError(err error) bool {
	for _, typed := range []error{snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrCorrupt,
		snapshot.ErrMismatch, snapshot.ErrEpochSkew} {
		if errors.Is(err, typed) {
			return true
		}
	}
	return false
}

var errStopAtCheckpoint = errors.New("stop at checkpoint")

// midRunCheckpoint runs w under the extended DSA and returns the first
// checkpoint taken past step 10000.
func midRunCheckpoint(tb testing.TB, w *workloads.Workload) []byte {
	tb.Helper()
	sys, err := dsa.NewSystem(w.Scalar(), cpu.DefaultConfig(), dsa.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	w.Setup(sys.M)
	var out []byte
	sys.SetRunHook(func() error {
		if sys.M.Steps < 10_000 {
			return nil
		}
		var sw snapshot.Writer
		if err := sys.SaveState(&sw); err != nil {
			return err
		}
		out = sw.Bytes()
		return errStopAtCheckpoint
	})
	if err := sys.Run(); !errors.Is(err, errStopAtCheckpoint) {
		tb.Fatalf("checkpoint run ended with %v", err)
	}
	return out
}

// reseal rebuilds b's container with the epoch word and every section
// CRC recomputed, keeping b's magic and version, or returns nil when
// b's framing does not hold.
func reseal(b []byte) []byte {
	if len(b) < snapshot.HeaderLen {
		return nil
	}
	w := snapshot.Writer{Epoch: binary.LittleEndian.Uint64(b[8:])}
	rest := b[snapshot.HeaderLen:]
	for n := binary.LittleEndian.Uint32(b[20:]); n > 0; n-- {
		name, ok := lengthPrefixed(&rest)
		if !ok {
			return nil
		}
		payload, ok := lengthPrefixed(&rest)
		if !ok || len(rest) < 4 {
			return nil
		}
		rest = rest[4:] // the CRC being replaced
		w.Add(string(name), payload)
	}
	if len(rest) != 0 {
		return nil
	}
	out := w.Bytes()
	copy(out, b[:8])
	return out
}

// lengthPrefixed takes one u32-length-prefixed field off the front of
// *b.
func lengthPrefixed(b *[]byte) ([]byte, bool) {
	if len(*b) < 4 {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(*b)
	if uint64(n) > uint64(len(*b)-4) {
		return nil, false
	}
	field := (*b)[4 : 4+n]
	*b = (*b)[4+n:]
	return field, true
}
