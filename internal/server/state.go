package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/snapshot"
)

// A state file is a snapshot container ("DSNP" magic, CRC-validated,
// written atomically) with one section whose payload is a daemon's
// job table as JSON. Per-job simulation state lives in the runner's
// own checkpoint files; the state file only records which jobs exist
// and where they stood, so a restarted daemon can re-queue and resume.

// SaveState adds section, holding v as JSON, to w and writes w to path
// crash-consistently. w carries the header epoch and any sections that
// precede the state. An empty path disables persistence.
func SaveState(path string, w snapshot.Writer, section string, v any) error {
	if path == "" {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w.Add(section, payload)
	return w.WriteFile(path)
}

// LoadState decodes the JSON payload of section from the state file at
// path into v, reporting whether it did. An empty path or a missing
// file is a fresh start: found is false, err nil. A file that fails
// the container's checks is renamed aside (never silently overwritten)
// and reported; a readable file whose section is missing or whose
// payload does not decode is reported too. Both also start fresh.
func LoadState(path, section string, v any) (found bool, err error) {
	if path == "" {
		return false, nil
	}
	rd, err := snapshot.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		quarantine := path + ".bad"
		// Best effort: if the rename fails too, the next save still
		// replaces the damaged file atomically.
		_ = os.Rename(path, quarantine)
		return false, fmt.Errorf("state file %s unreadable (%w); moved to %s, starting fresh", path, err, quarantine)
	}
	if err := decodeState(rd, section, v); err != nil {
		return false, fmt.Errorf("state file %s: %w", path, err)
	}
	return true, nil
}

// decodeState decodes the JSON payload of section from a validated
// container into v.
func decodeState(rd *snapshot.Reader, section string, v any) error {
	payload, err := rd.Section(section)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
}

// stateSection names the standalone daemon's state-file section.
const stateSection = "dsasimd.jobs"

// stateFile is the standalone daemon's state payload. NextID is the
// next job number to issue.
type stateFile struct {
	NextID uint64   `json:"next_id"`
	Jobs   []JobRow `json:"jobs"`
}

// lastID is the highest job number the table had issued.
func (st *stateFile) lastID() uint64 {
	if st.NextID == 0 {
		return 0
	}
	return st.NextID - 1
}
