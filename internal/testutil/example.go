// Package testutil holds deterministic-mode helpers the examples share: a
// fixed clock and host-side artifact export. It deliberately contains
// nothing that imports the testing package, so example binaries can link
// it without pulling test machinery; the golden-file harness lives in the
// testutil/golden subpackage, imported only by _test files.
package testutil

import (
	"fmt"
	"os"
	"time"

	"fex/internal/core"
)

// Clock returns a fixed clock for deterministic example runs: with it,
// the run-log header timestamp — the one live field of a run log — is
// constant, so the example's artifacts are byte-stable and can
// be committed as golden files.
func Clock() func() time.Time {
	instant := time.Date(2017, 6, 26, 12, 0, 0, 0, time.UTC) // DSN'17
	return func() time.Time { return instant }
}

// ExportReport copies a run's stored artifacts — the run log and the
// collected CSV — from the experiment container into the current
// directory as prefix.log and prefix.csv, the same shape as the CLI's
// "-o" export. Examples call it so their results are inspectable on the
// host and comparable by the golden harness.
func ExportReport(fx *core.Fex, report *core.RunReport, prefix string) error {
	for ext, path := range map[string]string{".log": report.LogPath, ".csv": report.CSVPath} {
		data, err := fx.ReadResult(path)
		if err != nil {
			return fmt.Errorf("export %s: %w", path, err)
		}
		if err := os.WriteFile(prefix+ext, data, 0o644); err != nil {
			return fmt.Errorf("export %s: %w", prefix+ext, err)
		}
	}
	return nil
}
