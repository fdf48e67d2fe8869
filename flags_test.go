package hmmer3gpu

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Every -flag the documents pass to hmmsearch, hmmworker, hmmserved or
// hmmbench must resolve in that command's FlagSet: the one each main
// builds with its newConfig and prints with -h. The documents are the
// shell command lines of README.md, DESIGN.md and the CI workflow, and
// the argument lists the smoke runner starts the commands with.
func TestDocumentedFlagsExist(t *testing.T) {
	commands := []string{"hmmsearch", "hmmworker", "hmmserved", "hmmbench"}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator))
	for _, c := range commands {
		build.Args = append(build.Args, "./cmd/"+c)
	}
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	defined := map[string]map[string]bool{}
	for _, c := range commands {
		// -h exits 0 after printing the FlagSet.
		out, err := exec.Command(filepath.Join(bin, c), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", c, err, out)
		}
		defined[c] = map[string]bool{}
		for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(out), -1) {
			defined[c][m[1]] = true
		}
	}

	used := map[string]map[string]string{} // command -> flag -> where
	use := func(cmd, flag, where string) {
		if used[cmd] == nil {
			used[cmd] = map[string]string{}
		}
		used[cmd][flag] = where
	}
	cmdLine := regexp.MustCompile(`\b(` + strings.Join(commands, "|") + `)\b([^` + "`" + `|;&>#]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(b), "\n")
		for i := 0; i < len(lines); i++ {
			line, where := lines[i], doc+":"+strconv.Itoa(i+1)
			// A trailing backslash continues a shell command line.
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = line[:len(line)-1] + " " + lines[i]
			}
			for _, m := range cmdLine.FindAllStringSubmatch(line, -1) {
				for _, tok := range strings.Fields(m[2]) {
					if f := flagTok.FindStringSubmatch(tok); f != nil {
						use(m[1], f[1], where)
					}
				}
			}
		}
	}
	for cmd, flags := range smokeFlags(t, "internal/smoke/smoke_test.go") {
		for _, f := range flags {
			use(cmd, f, "internal/smoke/smoke_test.go")
		}
	}

	for _, c := range commands {
		if len(used[c]) == 0 {
			t.Errorf("no documented %s flags found: the scan is broken", c)
		}
		for f, where := range used[c] {
			if !defined[c][f] {
				t.Errorf("%s: %s -%s: no such flag", where, c, f)
			}
		}
	}
}

// flagTok matches a flag token, capturing its name.
var flagTok = regexp.MustCompile(`^-([a-zA-Z][a-zA-Z0-9-]*)`)

// smokeFlags maps each command the smoke runner starts to the flag
// literals it passes: the arguments of r.search (hmmsearch),
// r.startServed (hmmserved) and r.start (by the binary it names),
// following the function's local []string variables.
func smokeFlags(t *testing.T, path string) map[string][]string {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bins := map[string]string{"search": "hmmsearch", "searchRace": "hmmsearch", "worker": "hmmworker", "served": "hmmserved"}
	uses := map[string][]string{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		vars := map[string][]string{}
		flags := func(e ast.Expr) []string {
			var out []string
			ast.Inspect(e, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
						if f := flagTok.FindStringSubmatch(s); f != nil && f[0] == s {
							out = append(out, f[1])
						}
					}
				case *ast.Ident:
					out = append(out, vars[n.Name]...)
				}
				return true
			})
			return out
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if id, ok := n.Lhs[0].(*ast.Ident); ok && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					vars[id.Name] = append(vars[id.Name], flags(n.Rhs[0])...)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				cmd := map[string]string{"search": "hmmsearch", "startServed": "hmmserved"}[sel.Sel.Name]
				if sel.Sel.Name == "start" && len(n.Args) > 1 {
					if b, ok := n.Args[1].(*ast.SelectorExpr); ok {
						cmd = bins[b.Sel.Name]
					}
				}
				if cmd != "" {
					for _, a := range n.Args {
						uses[cmd] = append(uses[cmd], flags(a)...)
					}
				}
			}
			return true
		})
	}
	return uses
}
