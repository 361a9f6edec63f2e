package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as ascsim itself: with
// ASCSIM_RUN_MAIN set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ASCSIM_RUN_MAIN") != "" {
		os.Args = append(os.Args[:1], strings.Fields(os.Getenv("ASCSIM_RUN_MAIN"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDumpClampsToScalarMemory: -dump larger than scalar memory (4096 words
// by default) prints the whole memory instead of indexing past it.
func TestDumpClampsToScalarMemory(t *testing.T) {
	prog := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(prog, []byte("halt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "ASCSIM_RUN_MAIN=-dump 5000 "+prog)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ascsim -dump 5000: %v\n%s", err, out)
	}
	if n := strings.Count(string(out), "\n  ["); n != 4096 {
		t.Errorf("dumped %d words, want the 4096 of scalar memory", n)
	}
}

func writeData(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadDataFileParsesDecimalAndHex(t *testing.T) {
	path := writeData(t, "1 2 3\n0x10 -5\n\n7\n")
	rows, err := loadDataFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 2, 3}, {16, -5}, {}, {7}}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i := range want {
		if len(rows[i]) != len(want[i]) {
			t.Fatalf("row %d has %d words, want %d", i, len(rows[i]), len(want[i]))
		}
		for j := range want[i] {
			if rows[i][j] != want[i][j] {
				t.Errorf("row %d word %d = %d, want %d", i, j, rows[i][j], want[i][j])
			}
		}
	}
}

func TestLoadDataFileBadToken(t *testing.T) {
	path := writeData(t, "1 2\n3 four 5\n")
	_, err := loadDataFile(path, 16)
	if err == nil {
		t.Fatal("expected an error for a non-numeric token")
	}
	msg := err.Error()
	if !strings.Contains(msg, `bad value "four"`) || !strings.Contains(msg, ":2:") {
		t.Errorf("error %q should name the bad token and its line", msg)
	}
}

func TestLoadDataFileTooManyRows(t *testing.T) {
	path := writeData(t, "1\n2\n3\n4\n5\n")
	_, err := loadDataFile(path, 4)
	if err == nil {
		t.Fatal("expected an error for more rows than PEs")
	}
	if msg := err.Error(); !strings.Contains(msg, "5 data lines") || !strings.Contains(msg, "4 PEs") {
		t.Errorf("error %q should report the line/PE mismatch", msg)
	}
	// Exactly matching or fewer rows is fine.
	if _, err := loadDataFile(path, 5); err != nil {
		t.Errorf("5 rows on 5 PEs should load: %v", err)
	}
}

func TestLoadDataFileMissing(t *testing.T) {
	if _, err := loadDataFile(filepath.Join(t.TempDir(), "absent.txt"), 4); err == nil {
		t.Error("expected an error for a missing file")
	}
}
