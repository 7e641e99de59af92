package chaser

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the Markdown files and directories the doc check reads:
// the project's docs. The other *.md of the tree are not held to the code:
// the history and the plans name code already deleted or still to be
// written, the paper and related-work files are other people's text, and
// bench/README.md changes only with the benchmark, whose next change fixes
// it and adds bench here.
var checkedDocs = map[string]bool{
	"README.md":      true,
	"DESIGN.md":      true,
	"EXPERIMENTS.md": true,
	"docs":           true,
}

// goToolFlags are the flags of the go command that the docs cite.
var goToolFlags = []string{
	"bench", "benchmem", "benchtime", "count", "cover", "coverprofile", "cpu",
	"cpuprofile", "fuzz", "fuzztime", "memprofile", "memprofilerate", "race",
	"run", "short", "tags", "timeout", "v",
}

// TestDocs holds the docs to the code. A backticked span shaped like a
// reference must name something that exists, each shape in its own
// namespace:
//
//   - pkg.Ident, pkg.Type.Member and Type.Member: a declaration of a module
//     package (members are methods, struct fields and interface methods);
//   - TestX, BenchmarkX and FuzzX: a function of a module package;
//   - a repo path: a file or directory of the tree;
//   - -flag: a flag that cmd/* or examples/* define, or a go tool flag;
//   - a snake_case name under a metric or event prefix: a metric registered
//     with internal/obs, an event or span passed to the tracer or the event
//     sink, a benchmark metric, or a guest syscall of internal/isa;
//   - layer.metric_name: a benchmark metric of bench/metrics.go.
//
// A dotted span whose member is not a Go name may also be a string constant
// of the package its head names (wal.short_write). A span with a space is not
// a reference, and neither is a dotted span whose head is neither a module
// package, a type nor a benchmark layer. A cross-reference to a doc section
// (a doc's path, then its title in quotes), in a doc or in a Go comment, must
// name a heading of that doc. In the other direction, every metric
// registered under a literal name has a row in docs/OBSERVABILITY.md, and
// every flag of a cmd/* program appears in README.md or docs/.
func TestDocs(t *testing.T) {
	ix := loadDocIndex(t)
	docs := ix.docs
	t.Run("NamesResolve", func(t *testing.T) {
		spans := 0
		for _, name := range sortedKeys(docs) {
			n, problems := ix.checkDoc(name, docs[name])
			spans += n
			for _, p := range problems {
				t.Error(p)
			}
		}
		for _, p := range ix.commentRefs {
			if why := ix.checkCrossRef(p.crossRef); why != "" {
				t.Errorf("%s: %s", p.where, why)
			}
		}
		t.Logf("%d reference spans resolved in %d docs", spans, len(docs))
	})
	t.Run("MetricsHaveRows", func(t *testing.T) {
		for _, m := range ix.missingRows(docs["docs/OBSERVABILITY.md"]) {
			t.Errorf("metric %s is registered but has no row in docs/OBSERVABILITY.md", m)
		}
	})
	t.Run("FlagsDocumented", func(t *testing.T) {
		for _, f := range ix.undocumentedFlags(docs) {
			t.Errorf("flag -%s is defined in %s but appears nowhere in README.md or docs/", f, ix.cmdFlags[f])
		}
	})
	t.Run("RejectsPlantedLines", func(t *testing.T) {
		for _, line := range []string{
			"`internal/vm/engine_fast.go`",
			"`campaign_fork_fallbacks_total`",
			"`Prog.InstrAt`",
			"`-no-such-flag`",
			"`docs/PERFORMANCE.md`, \"The post-fault path\"",
		} {
			if _, problems := ix.checkDoc("planted.md", line); len(problems) == 0 {
				t.Errorf("the check accepts %s", line)
			}
		}
		metric := sortedKeys(ix.metrics)[0]
		var kept []string
		for _, line := range strings.Split(docs["docs/OBSERVABILITY.md"], "\n") {
			if !strings.Contains(line, "`"+metric+"`") {
				kept = append(kept, line)
			}
		}
		if !slices.Contains(ix.missingRows(strings.Join(kept, "\n")), metric) {
			t.Errorf("with the row of %s removed, the check still finds one", metric)
		}
	})
}

// docIndex is what a doc may name.
type docIndex struct {
	files       map[string]bool      // files and directories, slash-separated, relative to the root
	top         map[string]bool      // the root's entries
	pkgs        map[string]*goPkg    // module packages by name; packages that share a name merge
	types       map[string][]*goType // every declared type by name, across packages
	funcs       map[string]bool      // every top-level function name, across packages
	flags       map[string]bool      // flags cmd/* and examples/* define, and goToolFlags
	cmdFlags    map[string]string    // each flag a cmd/* program defines, with the program
	metrics     map[string]bool      // names registered with internal/obs under a literal
	families    [][2]string          // prefix and suffix of names registered by concatenation
	events      map[string]bool      // span, instant and event names
	bench       map[string]bool      // metric names of bench/metrics.go
	layers      map[string]bool      // heads of the dotted benchmark metric names
	prefixes    map[string]bool      // first words of metric, event and benchmark names
	headings    map[string][]string  // doc path -> its headings
	docs        map[string]string    // the docs the check reads, by path
	commentRefs []commentRef         // doc section cross-references in Go comments
}

type goPkg struct {
	decls   map[string]bool
	types   map[string]*goType
	strings map[string]bool // values of its package-level string constants and keyed tables
}

type goType struct {
	members  map[string]bool
	embedded []string
}

type commentRef struct {
	where string
	crossRef
}

// loadDocIndex walks the tree and parses its Go files.
func loadDocIndex(t *testing.T) *docIndex {
	ix := &docIndex{
		files: map[string]bool{}, top: map[string]bool{}, pkgs: map[string]*goPkg{},
		types: map[string][]*goType{}, funcs: map[string]bool{}, flags: map[string]bool{}, cmdFlags: map[string]string{},
		metrics: map[string]bool{}, events: map[string]bool{}, bench: map[string]bool{},
		layers: map[string]bool{}, prefixes: map[string]bool{}, headings: map[string][]string{},
		docs: map[string]string{},
	}
	for _, f := range goToolFlags {
		ix.flags[f] = true
	}
	ignored := gitIgnoredDirs()
	fset := token.NewFileSet()
	var files []*ast.File
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if p == "." {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || ignored[p]) {
			return filepath.SkipDir
		}
		ix.files[p] = true
		if !strings.Contains(p, "/") {
			ix.top[p] = true
		}
		switch {
		case strings.HasSuffix(p, ".go") && !d.IsDir():
			f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			paths = append(paths, p)
		case strings.HasSuffix(p, ".md") && !d.IsDir():
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			ix.headings[p] = headingsOf(string(data))
			first, _, _ := strings.Cut(p, "/")
			if checkedDocs[first] {
				ix.docs[p] = string(data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The names internal/obs takes from its callers: the registry's
	// constructors, and the tracer's and the event sink's recorders.
	metricFuncs, eventFuncs := map[string]bool{}, map[string]bool{}
	for i, f := range files {
		if path.Dir(paths[i]) != "internal/obs" {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !ast.IsExported(fd.Name.Name) || firstStringParam(fd) == "" {
				continue
			}
			switch recvName(fd.Recv.List[0].Type) {
			case "Registry":
				metricFuncs[fd.Name.Name] = true
			case "Tracer", "Sink":
				eventFuncs[fd.Name.Name] = true
			}
		}
	}
	// A function that passes its first parameter on to a recorder records
	// whatever its callers pass it.
	for i, f := range files {
		if !isTest(paths[i]) {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && passesFirstParam(fd, eventFuncs) {
					eventFuncs[fd.Name.Name] = true
				}
			}
		}
	}
	for i, f := range files {
		p := paths[i]
		ix.addDecls(f)
		if strings.HasPrefix(p, "bench/") {
			if p == "bench/metrics.go" {
				ix.addBenchMetrics(f)
			}
			continue
		}
		for _, c := range f.Comments {
			for _, ref := range crossRefsIn(c.Text()) {
				ix.commentRefs = append(ix.commentRefs, commentRef{fset.Position(c.Pos()).String(), ref})
			}
		}
		if isTest(p) {
			continue
		}
		if strings.HasPrefix(p, "cmd/") || strings.HasPrefix(p, "examples/") {
			ix.addFlags(f, p)
		}
		if strings.HasPrefix(p, "internal/") || strings.HasPrefix(p, "cmd/") {
			ix.addNames(f, metricFuncs, eventFuncs)
		}
	}
	for _, set := range []map[string]bool{ix.metrics, ix.events, ix.bench} {
		for name := range set {
			if first, _, ok := strings.Cut(name, "_"); ok && !strings.Contains(first, ".") {
				ix.prefixes[first] = true
			}
		}
	}
	for _, fam := range ix.families {
		first, _, _ := strings.Cut(fam[0], "_")
		ix.prefixes[first] = true
	}
	return ix
}

// gitIgnoredDirs reads the directories the root .gitignore lists: what
// building and running leave behind is not part of the tree.
func gitIgnoredDirs() map[string]bool {
	dirs := map[string]bool{}
	data, err := os.ReadFile(".gitignore")
	if err != nil {
		return dirs
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			dirs[strings.Trim(line, "/")] = true
		}
	}
	return dirs
}

func isTest(p string) bool { return strings.HasSuffix(p, "_test.go") }

// addDecls records a file's top-level names and the members of its types.
func (ix *docIndex) addDecls(f *ast.File) {
	name := strings.TrimSuffix(f.Name.Name, "_test")
	pkg := ix.pkgs[name]
	if pkg == nil {
		pkg = &goPkg{decls: map[string]bool{}, types: map[string]*goType{}, strings: map[string]bool{}}
		ix.pkgs[name] = pkg
	}
	typ := func(n string) *goType {
		gt := pkg.types[n]
		if gt == nil {
			gt = &goType{members: map[string]bool{}}
			pkg.types[n] = gt
			ix.types[n] = append(ix.types[n], gt)
		}
		return gt
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				pkg.decls[d.Name.Name] = true
				ix.funcs[d.Name.Name] = true
			} else if r := recvName(d.Recv.List[0].Type); r != "" {
				typ(r).members[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						pkg.decls[n.Name] = true
					}
					for _, v := range s.Values {
						if lit, ok := stringLit(v); ok && d.Tok == token.CONST {
							pkg.strings[lit] = true
						}
						if cl, ok := v.(*ast.CompositeLit); ok {
							for _, e := range cl.Elts {
								if kv, ok := e.(*ast.KeyValueExpr); ok {
									if lit, ok := stringLit(kv.Value); ok {
										pkg.strings[lit] = true
									}
								}
							}
						}
					}
				case *ast.TypeSpec:
					pkg.decls[s.Name.Name] = true
					gt := typ(s.Name.Name)
					var fields []*ast.Field
					switch st := s.Type.(type) {
					case *ast.StructType:
						fields = st.Fields.List
					case *ast.InterfaceType:
						fields = st.Methods.List
					}
					for _, fl := range fields {
						for _, n := range fl.Names {
							gt.members[n.Name] = true
						}
						if len(fl.Names) == 0 {
							if e := recvName(fl.Type); e != "" {
								gt.embedded = append(gt.embedded, e)
								gt.members[e] = true
							}
						}
					}
				}
			}
		}
	}
}

// recvName is the type name of a receiver or an embedded field: T of T,
// *T, T[P], pkg.T.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// firstStringParam is the name of a function's first parameter when it is a
// string.
func firstStringParam(fd *ast.FuncDecl) string {
	ps := fd.Type.Params.List
	if len(ps) == 0 || len(ps[0].Names) == 0 {
		return ""
	}
	if id, ok := ps[0].Type.(*ast.Ident); ok && id.Name == "string" {
		return ps[0].Names[0].Name
	}
	return ""
}

// passesFirstParam reports whether a function hands its first parameter, a
// string, to one of funcs as that call's first argument.
func passesFirstParam(fd *ast.FuncDecl, funcs map[string]bool) bool {
	param := firstStringParam(fd)
	if param == "" || fd.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && funcs[calleeName(call)] && len(call.Args) > 0 {
			if id, ok := call.Args[0].(*ast.Ident); ok && id.Name == param {
				found = true
			}
		}
		return !found
	})
	return found
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return ""
}

// stringLit is the value of a string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// addFlags records the flags a command's file defines: the name argument of
// flag.X and flag.XVar calls, on the flag package or a FlagSet.
func (ix *docIndex) addFlags(f *ast.File, p string) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		arg := -1
		switch sel.Sel.Name {
		case "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "String", "Duration", "Func", "BoolFunc":
			arg = 0
		case "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "StringVar", "DurationVar", "Var", "TextVar":
			arg = 1
		}
		if arg < 0 || len(call.Args) <= arg+1 {
			return true
		}
		if name, ok := stringLit(call.Args[arg]); ok && flagName.MatchString(name) {
			ix.flags[name] = true
			if strings.HasPrefix(p, "cmd/") {
				ix.cmdFlags[name] = path.Dir(p)
			}
		}
		return true
	})
}

// addNames records the metric names a file registers and the span and event
// names it records: literals passed straight to a recorder, and literals
// assigned to the variable a function passes. Names built by concatenation
// are recorded as families.
func (ix *docIndex) addNames(f *ast.File, metricFuncs, eventFuncs map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.ADD {
			if pre, suf, ok := concatFamily(b); ok {
				ix.families = append(ix.families, [2]string{pre, suf})
			}
		}
		return true
	})
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		assigned := map[string][]string{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) {
						if s, ok := stringLit(n.Rhs[i]); ok {
							assigned[id.Name] = append(assigned[id.Name], s)
						}
					}
				}
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			name := calleeName(call)
			if s, ok := stringLit(call.Args[0]); ok && metricFuncs[name] {
				ix.metrics[s] = true
			} else if ok && eventFuncs[name] {
				ix.events[s] = true
			} else if id, ok := call.Args[0].(*ast.Ident); ok && eventFuncs[name] {
				for _, s := range assigned[id.Name] {
					ix.events[s] = true
				}
			}
			return true
		})
	}
}

// concatFamily reads "prefix_" + x + "_suffix", the shape of a name built
// per member of a family.
func concatFamily(e *ast.BinaryExpr) (string, string, bool) {
	suf, ok := stringLit(e.Y)
	if !ok || !strings.HasPrefix(suf, "_") {
		return "", "", false
	}
	left := e.X
	for {
		b, ok := left.(*ast.BinaryExpr)
		if !ok || b.Op != token.ADD {
			break
		}
		left = b.X
	}
	pre, ok := stringLit(left)
	if !ok || !snakeName.MatchString(strings.TrimSuffix(pre, "_")) || !strings.HasSuffix(pre, "_") || left == e.X {
		return "", "", false
	}
	return pre, suf, true
}

// addBenchMetrics records the Name: entries of bench/metrics.go.
func (ix *docIndex) addBenchMetrics(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
			if s, ok := stringLit(kv.Value); ok {
				ix.bench[s] = true
				if head, _, ok := strings.Cut(s, "."); ok {
					ix.layers[head] = true
				}
			}
		}
		return true
	})
}

var (
	codeSpan      = regexp.MustCompile("`([^`]+)`")
	flagName      = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	flagSpan      = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(=\S*)?$`)
	flagMention   = regexp.MustCompile("(?:^|[\\s(`\\[])-([a-z][a-z0-9-]*)")
	snakeName     = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)
	familySpan    = regexp.MustCompile(`^([a-z][a-z0-9_]*_)<[a-z_]+>(_[a-z0-9_]+)$`)
	testFunc      = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z]\w*$`)
	dotted        = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+$`)
	pathChars     = regexp.MustCompile(`^[\w.*/-]+$`)
	starRecv      = regexp.MustCompile(`\(\*(\w+)\)`)
	crossRefShape = regexp.MustCompile("`?((?:docs/)?[A-Z]+\\.md)`?,?\\s+(?:§\\s?\\d+,?\\s+)?(\"[^\"]+\"(?:,?\\s+(?:and|or)\\s+\"[^\"]+\")*)")
	quoted        = regexp.MustCompile(`"([^"]+)"`)
	numbered      = regexp.MustCompile(`^\d+\.\s+`)
)

// pathExts are the file extensions that make a span a path.
var pathExts = []string{".go", ".md", ".sh", ".json", ".jsonl", ".yml", ".patch", ".mod", ".sha256"}

// checkDoc checks one doc's spans and cross-references. It returns the
// number of reference spans that resolved and a line per one that did not.
func (ix *docIndex) checkDoc(name, text string) (int, []string) {
	resolved := 0
	var problems []string
	text = stripFences(text)
	for i, line := range strings.Split(text, "\n") {
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			ref, why := ix.resolve(m[1])
			if why != "" {
				problems = append(problems, fmt.Sprintf("%s:%d: `%s`: %s", name, i+1, m[1], why))
			} else if ref {
				resolved++
			}
		}
	}
	// A cross-reference may wrap, so it is matched over the whole text.
	for _, r := range crossRefsIn(text) {
		line := strings.Count(text[:r.at], "\n") + 1
		if why := ix.checkCrossRef(r); why != "" {
			problems = append(problems, fmt.Sprintf("%s:%d: %s", name, line, why))
		}
	}
	return resolved, problems
}

// stripFences blanks fenced code blocks, keeping the line count.
func stripFences(text string) string {
	lines := strings.Split(text, "\n")
	in := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			in = !in
			lines[i] = ""
		} else if in {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// crossRef is a citation of a doc section: the doc's path and the title.
type crossRef struct {
	at          int // offset in the text it was found in
	file, title string
}

func crossRefsIn(text string) []crossRef {
	var refs []crossRef
	for _, m := range crossRefShape.FindAllStringSubmatchIndex(text, -1) {
		file := text[m[2]:m[3]]
		for _, q := range quoted.FindAllStringSubmatch(text[m[4]:m[5]], -1) {
			refs = append(refs, crossRef{m[0], file, strings.Join(strings.Fields(q[1]), " ")})
		}
	}
	return refs
}

// checkCrossRef checks that the cited doc has a heading that starts with the
// title.
func (ix *docIndex) checkCrossRef(r crossRef) string {
	file, title := r.file, r.title
	hs, ok := ix.headings[file]
	if !ok {
		if hs, ok = ix.headings["docs/"+file]; !ok {
			return fmt.Sprintf("%s, %q: no such doc", file, title)
		}
	}
	for _, h := range hs {
		if strings.HasPrefix(h, title) {
			return ""
		}
	}
	return fmt.Sprintf("%s has no heading %q", file, title)
}

// headingsOf lists a doc's headings: its # lines, numbering dropped, and
// the bold run-in headings that start a paragraph.
func headingsOf(text string) []string {
	var hs []string
	sc := bufio.NewScanner(strings.NewReader(stripFences(text)))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		l := sc.Text()
		switch {
		case strings.HasPrefix(l, "#"):
			h := numbered.ReplaceAllString(strings.TrimSpace(strings.TrimLeft(l, "#")), "")
			hs = append(hs, strings.ReplaceAll(h, "`", ""))
		case strings.HasPrefix(l, "**"):
			if h, _, ok := strings.Cut(l[2:], "**"); ok {
				hs = append(hs, strings.TrimSuffix(strings.ReplaceAll(h, "`", ""), "."))
			}
		}
	}
	return hs
}

// resolve classifies a span. ref reports a reference span; why is not empty
// when it names nothing.
func (ix *docIndex) resolve(span string) (ref bool, why string) {
	if strings.ContainsAny(span, " \t\n") {
		return false, ""
	}
	if m := flagSpan.FindStringSubmatch(span); m != nil {
		if !ix.flags[m[1]] {
			return true, "no cmd/* or examples/* program defines this flag"
		}
		return true, ""
	}
	if p, ok := ix.pathOf(span); ok {
		if !ix.pathExists(p) {
			return true, "no such file or directory"
		}
		return true, ""
	}
	if m := familySpan.FindStringSubmatch(span); m != nil {
		for _, fam := range ix.families {
			if fam[0] == m[1] && fam[1] == m[2] {
				return true, ""
			}
		}
		return true, "no metric family is registered with this prefix and suffix"
	}
	if snakeName.MatchString(span) {
		first, _, _ := strings.Cut(span, "_")
		if !ix.prefixes[first] {
			return false, ""
		}
		if ix.metrics[span] || ix.events[span] || ix.bench[span] || ix.inFamily(span) || ix.pkgs["isa"].strings[span] {
			return true, ""
		}
		return true, "no metric, event, benchmark metric or guest syscall of this name"
	}
	name := strings.ReplaceAll(starRecv.ReplaceAllString(span, "$1"), "()", "")
	if testFunc.MatchString(name) {
		if !ix.funcs[name] {
			return true, "no package declares this test, benchmark or fuzz target"
		}
		return true, ""
	}
	if !dotted.MatchString(name) {
		return false, ""
	}
	if ix.events[name] || ix.bench[name] {
		return true, ""
	}
	parts := strings.Split(name, ".")
	head := parts[0]
	if pkg := ix.pkgs[head]; pkg != nil && head != "main" {
		if !pkg.decls[parts[1]] && !pkg.strings[name] {
			if ix.layers[head] && snakeName.MatchString(parts[1]) {
				return true, "no benchmark metric of this name"
			}
			return true, fmt.Sprintf("package %s declares no %s", head, parts[1])
		}
		if len(parts) > 2 && pkg.types[parts[1]] != nil && !ix.hasMember([]*goType{pkg.types[parts[1]]}, parts[2]) {
			return true, fmt.Sprintf("%s.%s has no member %s", head, parts[1], parts[2])
		}
		return true, ""
	}
	if ix.layers[head] {
		return true, "no benchmark metric of this name"
	}
	if ts := ix.types[head]; ts != nil {
		if !ix.hasMember(ts, parts[1]) {
			return true, fmt.Sprintf("no type %s has a member %s", head, parts[1])
		}
		return true, ""
	}
	if ast.IsExported(head) {
		return true, fmt.Sprintf("no package or type %s", head)
	}
	return false, ""
}

// hasMember looks a member up on types and, through their embedded fields,
// on the types they embed.
func (ix *docIndex) hasMember(ts []*goType, member string) bool {
	seen := map[*goType]bool{}
	for len(ts) > 0 {
		t := ts[0]
		ts = ts[1:]
		if seen[t] {
			continue
		}
		seen[t] = true
		if t.members[member] {
			return true
		}
		for _, e := range t.embedded {
			ts = append(ts, ix.types[e]...)
		}
	}
	return false
}

func (ix *docIndex) inFamily(name string) bool {
	for _, fam := range ix.families {
		if strings.HasPrefix(name, fam[0]) && strings.HasSuffix(name, fam[1]) && len(name) > len(fam[0])+len(fam[1]) {
			return true
		}
	}
	return false
}

// pathOf reads a span as a repo path: one that starts at an entry of the
// root, or ends in a file extension. A line suffix (file.go:12) and a
// leading ./ are dropped; absolute paths and placeholders are not repo
// paths.
func (ix *docIndex) pathOf(span string) (string, bool) {
	p, _, _ := strings.Cut(span, ":")
	p = strings.TrimPrefix(p, "./")
	if p == "" || strings.HasPrefix(p, "/") || strings.HasPrefix(p, ".") && !strings.Contains(p, "/") || strings.Contains(p, "...") || !pathChars.MatchString(p) {
		return "", false
	}
	first, _, _ := strings.Cut(p, "/")
	if strings.Contains(p, "/") && ix.top[first] {
		return strings.TrimSuffix(p, "/"), true
	}
	for _, ext := range pathExts {
		if strings.HasSuffix(p, ext) {
			return p, true
		}
	}
	return "", false
}

// pathExists matches a path, or a glob, against the tree. A path that does
// not start at the root matches the end of one that does.
func (ix *docIndex) pathExists(p string) bool {
	first, _, _ := strings.Cut(p, "/")
	rooted := ix.top[first]
	for f := range ix.files {
		if f == p || rooted && globMatch(p, f) ||
			!rooted && (strings.HasSuffix(f, "/"+p) || globMatch(p, path.Base(f))) {
			return true
		}
	}
	return false
}

func globMatch(pattern, name string) bool {
	if !strings.Contains(pattern, "*") {
		return false
	}
	ok, _ := path.Match(pattern, name)
	return ok
}

// missingRows lists the metrics registered under a literal name that have
// no table row in the observability doc.
func (ix *docIndex) missingRows(obsDoc string) []string {
	rows := map[string]bool{}
	for _, line := range strings.Split(obsDoc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "|") {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				rows[m[1]] = true
			}
		}
	}
	var missing []string
	for _, m := range sortedKeys(ix.metrics) {
		if !rows[m] {
			missing = append(missing, m)
		}
	}
	return missing
}

// undocumentedFlags lists the cmd/* flags that README.md and docs/ never
// mention.
func (ix *docIndex) undocumentedFlags(docs map[string]string) []string {
	seen := map[string]bool{}
	for name, doc := range docs {
		if name == "README.md" || strings.HasPrefix(name, "docs/") {
			for _, m := range flagMention.FindAllStringSubmatch(doc, -1) {
				seen[m[1]] = true
			}
		}
	}
	var missing []string
	for _, f := range sortedKeys(ix.cmdFlags) {
		if !seen[f] {
			missing = append(missing, f)
		}
	}
	return missing
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
