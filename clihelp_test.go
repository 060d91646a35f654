package repro_test

// Golden -h transcripts for every command in cmd/. The golden files under
// testdata/help are the reviewed copy of each binary's flag surface: a new,
// renamed, or re-documented flag shows up as a golden diff, and every flag
// is required to carry a usage string. Regenerate after a deliberate change
// with:
//
//	go test -run TestCommandHelp -update .

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden -h transcripts under testdata/help")

// helpCommands is every binary the repository ships.
var helpCommands = []string{
	"benchjson", "cachequery", "cqsynth", "experiments",
	"genmodels", "polca", "polcad", "polcaload",
}

func TestCommandHelp(t *testing.T) {
	bindir := t.TempDir()
	for _, name := range helpCommands {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(bindir, name)
			build := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("building %s: %v\n%s", name, err, out)
			}
			// flag's ErrHelp path prints the usage and exits 0; anything
			// else (a panic in main before Parse, exit 2) is a bug.
			out, err := exec.Command(bin, "-h").CombinedOutput()
			if err != nil {
				t.Fatalf("%s -h exited nonzero: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("%s -h printed nothing", name)
			}
			// "Usage of <path>:" embeds the temp build path; normalize it
			// to the bare command name so the transcript is stable.
			out = []byte(strings.ReplaceAll(string(out), bin, name))
			checkFlagUsageLines(t, name, string(out))

			golden := filepath.Join("testdata", "help", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("no golden transcript (run go test -run TestCommandHelp -update .): %v", err)
			}
			if string(want) != string(out) {
				t.Errorf("%s -h differs from %s — if the change is deliberate, regenerate with -update\ngot:\n%s\nwant:\n%s",
					name, golden, out, want)
			}
		})
	}
}

// checkFlagUsageLines requires every flag in a PrintDefaults block to carry
// a usage description: flag prints "  -name type" followed by an indented
// "    \t<usage>" line, and an empty usage string leaves the description
// line blank (or collapses it to just the default), which reads as an
// undocumented flag.
func checkFlagUsageLines(t *testing.T, name, out string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "  -") {
			continue
		}
		flagName := strings.Fields(line)[0]
		if i+1 >= len(lines) {
			t.Errorf("%s: flag %s has no usage line", name, flagName)
			continue
		}
		desc := strings.TrimSpace(lines[i+1])
		if desc == "" || strings.HasPrefix(desc, "(default") {
			t.Errorf("%s: flag %s has an empty usage string (line %d)", name, flagName, i+2)
		}
	}
}
