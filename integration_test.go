// End-to-end tests of the command-line tools: each binary is built once
// and driven through its primary flows, checking the printed results
// against known answers.
package swfpga_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles every cmd/ binary into a shared temp dir once.
var toolsDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swfpga-tools")
	if err != nil {
		panic(err)
	}
	toolsDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tool builds (once) and returns the path of a cmd binary.
func tool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(toolsDir, name)
	if _, err := os.Stat(bin); err == nil {
		return bin
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLISwalignFigure2(t *testing.T) {
	out := run(t, tool(t, "swalign"), "-s", "TATGGAC", "-t", "TAGTGACT")
	for _, want := range []string{"score\t3", "GAC", "3="} {
		if !strings.Contains(out, want) {
			t.Errorf("swalign output missing %q:\n%s", want, out)
		}
	}
}

func TestCLISwalignGlobalAndAffine(t *testing.T) {
	bin := tool(t, "swalign")
	out := run(t, bin, "-s", "ACGT", "-t", "ACGT", "-mode", "global")
	if !strings.Contains(out, "score\t4") {
		t.Errorf("global: %s", out)
	}
	out = run(t, bin, "-s", "ACGTACGT", "-t", "ACGTGGGACGT", "-affine")
	if !strings.Contains(out, "score\t4") {
		t.Errorf("affine: %s", out)
	}
	out = run(t, bin, "-matrix", "blosum62", "-s", "MKVLAWGRT", "-t", "MKVLWWGRT")
	if !strings.Contains(out, "BLOSUM62") || !strings.Contains(out, "score\t42") {
		t.Errorf("protein: %s", out)
	}
}

func TestCLISwsim(t *testing.T) {
	bin := tool(t, "swsim")
	out := run(t, bin, "-s", "TATGGAC", "-t", "TAGTGACT")
	for _, want := range []string{"score\t3", "end\t(7,7)", "cycles\t14", "verify\tOK"} {
		if !strings.Contains(out, want) {
			t.Errorf("swsim output missing %q:\n%s", want, out)
		}
	}
	out = run(t, bin, "-s", "TATGGAC", "-t", "TAGTGACT", "-trace")
	if !strings.Contains(out, "best score 3 at (7,7)") {
		t.Errorf("trace output:\n%s", out)
	}
	out = run(t, bin, "-s", "ACGTACGT", "-t", "ACGTGGGACGT", "-affine")
	if !strings.Contains(out, "score\t4") || !strings.Contains(out, "verify\tOK") {
		t.Errorf("affine sim:\n%s", out)
	}
}

func TestCLISeqgenAndSearch(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.fa")
	qPath := filepath.Join(dir, "q.fa")
	seqgen := tool(t, "seqgen")
	// Record g1 seeded 5; the query is its own prefix (same seed).
	db := run(t, seqgen, "-n", "1500", "-id", "g1", "-seed", "5")
	db += run(t, seqgen, "-n", "1500", "-id", "g2", "-seed", "6")
	if err := os.WriteFile(dbPath, []byte(db), 0o644); err != nil {
		t.Fatal(err)
	}
	q := run(t, seqgen, "-n", "50", "-id", "q", "-seed", "5")
	if err := os.WriteFile(qPath, []byte(q), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, tool(t, "swsearch"), "-query", qPath, "-db", dbPath, "-k", "2")
	if !strings.Contains(out, "g1") {
		t.Errorf("search did not rank the matching record first:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var firstHit string
	for _, l := range lines {
		if strings.HasPrefix(l, "1 ") {
			firstHit = l
			break
		}
	}
	if !strings.Contains(firstHit, "g1") || !strings.Contains(firstHit, "50") {
		t.Errorf("first hit should be g1 with score 50: %q", firstHit)
	}
}

func TestCLISwbench(t *testing.T) {
	bin := tool(t, "swbench")
	out := run(t, bin, "-list")
	for _, id := range []string{"headline", "table1", "table2", "figure2", "protein"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list missing %s:\n%s", id, out)
		}
	}
	out = run(t, bin, "-run", "figure2")
	if !strings.Contains(out, "best score 3 at (7,7)") {
		t.Errorf("figure2 experiment:\n%s", out)
	}
	out = run(t, bin, "-run", "headline", "-scale", "0.002")
	if !strings.Contains(out, "agreement") {
		t.Errorf("headline experiment:\n%s", out)
	}
}

func TestCLIErrorPaths(t *testing.T) {
	bin := tool(t, "swalign")
	cmd := exec.Command(bin, "-s", "ACGT") // missing database
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("missing database should fail: %s", out)
	}
	cmd = exec.Command(bin, "-s", "ACXT", "-t", "ACGT")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("invalid base should fail: %s", out)
	}
	cmd = exec.Command(tool(t, "swbench"), "-run", "nonexistent")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("unknown experiment should fail: %s", out)
	}
}

func TestCLISwsimVCD(t *testing.T) {
	dir := t.TempDir()
	vcdPath := filepath.Join(dir, "wave.vcd")
	out := run(t, tool(t, "swsim"), "-s", "TATGGAC", "-t", "TAGTGACT", "-vcd", vcdPath)
	if !strings.Contains(out, "score\t3") {
		t.Errorf("vcd run output:\n%s", out)
	}
	data, err := os.ReadFile(vcdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "$enddefinitions $end") {
		t.Error("VCD file malformed")
	}
}

// TestCLISwsearchStreamMatchesInMemory pins the CLI's streaming default
// to the in-memory scan: the same database under a tight -max-memory
// budget must print identical hits, and -stream=false must take the
// legacy path without changing the output.
func TestCLISwsearchStreamMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.fa")
	seqgen := tool(t, "seqgen")
	var db string
	for i, seed := range []string{"41", "42", "43", "44"} {
		db += run(t, seqgen, "-n", "2000", "-id", "s"+string(rune('a'+i)), "-seed", seed)
	}
	if err := os.WriteFile(dbPath, []byte(db), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-q", "ACGTACGTACGTACGTACGTACGT", "-db", dbPath, "-min", "5", "-k", "0"}
	streamed := run(t, tool(t, "swsearch"), append(args, "-max-memory", "4KiB")...)
	inMemory := run(t, tool(t, "swsearch"), append(args, "-stream=false")...)
	if streamed != inMemory {
		t.Errorf("streamed output diverges from in-memory:\n--- streamed ---\n%s--- in-memory ---\n%s", streamed, inMemory)
	}
	if !strings.Contains(streamed, "against 4 records") {
		t.Errorf("streamed run lost the record count:\n%s", streamed)
	}

	// -batch groups records per dispatch on the streamed and the indexed
	// paths too: on a batch-capable engine they print the same hits.
	batched := []string{"-engine", "swar", "-batch", "4", "-min", "5", "-k", "0", "-q", "ACGTACGTACGTACGTACGTACGT"}
	run(t, tool(t, "swindex"), "-db", dbPath, "-out", dir, "-name", "db", "-shard-bytes", "1KiB")
	index := filepath.Join(dir, "db.swidx")
	for name, extra := range map[string][]string{
		"streamed":        {"-db", dbPath, "-max-memory", "4KiB"},
		"indexed":         {"-index", index, "-max-memory", "4KiB"},
		"indexed sharded": {"-index", index, "-shard-workers", "2"},
	} {
		if out := run(t, tool(t, "swsearch"), append(extra, batched...)...); out != inMemory {
			t.Errorf("%s -batch 4 output diverges from in-memory:\n--- %s ---\n%s--- in-memory ---\n%s", name, name, out, inMemory)
		}
	}
}

func TestCLISwsearchEvalueAndTranslated(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.fa")
	seqgen := tool(t, "seqgen")
	db := run(t, seqgen, "-n", "900", "-id", "r1", "-seed", "21")
	db += run(t, seqgen, "-n", "900", "-id", "r2", "-seed", "22")
	if err := os.WriteFile(dbPath, []byte(db), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, tool(t, "swsearch"), "-q", "ACGTACGTACGTACGTACGT", "-db", dbPath, "-evalue")
	if !strings.Contains(out, "lambda") || !strings.Contains(out, "E-value") {
		t.Errorf("evalue output:\n%s", out)
	}
	out = run(t, tool(t, "swsearch"), "-translated", "-q", "MKVLAWGRTMKVLAWGRT", "-db", dbPath, "-min", "5")
	if !strings.Contains(out, "translated hits") {
		t.Errorf("translated output:\n%s", out)
	}
}

func TestCLISwalignLinearAffine(t *testing.T) {
	out := run(t, tool(t, "swalign"), "-affine", "-space", "linear", "-s", "ACGTACGTAACGT", "-t", "ACGTACCCGGGTAACGT")
	if !strings.Contains(out, "score\t7") {
		t.Errorf("linear-space affine:\n%s", out)
	}
}

// TestCLISwsearchTimeout pins the -timeout contract: a deadline that
// fires mid-stream is a clean error and a non-zero exit — never a
// success with a partial hit list.
func TestCLISwsearchTimeout(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.fa")
	seqgen := tool(t, "seqgen")
	db := ""
	for i := 0; i < 4; i++ {
		db += run(t, seqgen, "-n", "120000", "-id", "big"+string(rune('a'+i)), "-seed", string(rune('1'+i)))
	}
	if err := os.WriteFile(dbPath, []byte(db), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-q", "ACGTACGTACGTACGTACGTACGTACGTACGT", "-db", dbPath}

	// Sanity: without a deadline the same scan succeeds.
	out := run(t, tool(t, "swsearch"), args...)
	if !strings.Contains(out, "against 4 records") {
		t.Fatalf("control run:\n%s", out)
	}

	cmd := exec.Command(tool(t, "swsearch"), append(args, "-timeout", "1ms")...)
	raw, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("swsearch -timeout 1ms exited 0 on a scan that takes far longer:\n%s", raw)
	}
	if _, isExit := err.(*exec.ExitError); !isExit {
		t.Fatal(err)
	}
	got := string(raw)
	if !strings.Contains(got, "deadline") {
		t.Errorf("timeout failure should name the deadline:\n%s", got)
	}
	if strings.Contains(got, "hits for") {
		t.Errorf("timed-out run printed a hit summary (partial results reported as success):\n%s", got)
	}
}
