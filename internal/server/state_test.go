package server

import (
	"encoding/json"
	"testing"

	"repro/internal/snapshot"
)

// FuzzStateFile drives the state-file decoder and the table restore
// that both daemons share with arbitrary payloads. Each payload is
// wrapped in a valid snapshot container, so it passes the CRC check
// and reaches the JSON decoder (in memory: LoadState adds only the
// file read and the quarantine); a coordinator's table decodes to the
// same job rows as the standalone daemon's. Any input must give a
// typed error or a usable table — every job indexed and renderable,
// and a new submission taking a fresh ID — never a panic. The seed
// corpus under testdata/fuzz/FuzzStateFile holds one table written by
// each daemon.
func FuzzStateFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var w snapshot.Writer
		w.Add(stateSection, payload)
		rd, err := snapshot.Parse(w.Bytes())
		if err != nil {
			t.Fatalf("valid container refused: %v", err)
		}
		var st stateFile
		if err := decodeState(rd, stateSection, &st); err != nil {
			return
		}

		tab := NewTable()
		tab.Restore(st.Jobs, st.lastID())
		for _, j := range tab.Jobs() {
			if tab.Get(j.ID) != j {
				t.Fatalf("job %q listed but not indexed", j.ID)
			}
			if _, err := json.Marshal(j.View()); err != nil {
				t.Fatalf("job %q view: %v", j.ID, err)
			}
			if _, err := json.Marshal(j.Row()); err != nil {
				t.Fatalf("job %q row: %v", j.ID, err)
			}
		}
		if _, err := json.Marshal(tab.Rows()); err != nil {
			t.Fatalf("rows: %v", err)
		}
		n := len(tab.Jobs())
		if j := tab.add(JobSpec{Workload: "mm_32x32"}, ""); len(tab.Jobs()) != n+1 || tab.Get(j.ID) != j {
			t.Fatalf("new job %q collided with a restored one", j.ID)
		}
	})
}
