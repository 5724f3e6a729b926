package lint

import (
	"fmt"
	"sort"
	"strings"
)

// This file generates the machine-checked protocol documentation:
// `acelint -verbs-doc` renders the verb registry extracted by the
// conformance engine into PROTOCOL.md's verb table, and
// `acelint -metrics-doc` renders the telemetry registry into
// docs/METRICS.md. CI regenerates both and fails on drift, so the
// documents cannot fall out of sync with the source.

// VerbDoc is one entry of the extracted verb registry.
type VerbDoc struct {
	Name     string
	Doc      string
	Args     []ArgDoc
	Packages []string // short package names declaring the spec
}

// ArgDoc is one declared argument.
type ArgDoc struct {
	Name     string
	Kind     string
	Required bool
	Doc      string
}

// MetricDoc is one entry of the extracted telemetry registry.
type MetricDoc struct {
	Name     string // family entries render as "prefix<suffix>"
	Kind     string
	Doc      string
	Packages []string
	Family   bool
}

// ExtractVerbs builds the verb registry from every non-test
// CommandSpec literal in the program (the same extraction
// verbconformance checks against).
func ExtractVerbs(prog *Program) []VerbDoc {
	g := prog.Graph()
	pp := &ProgPass{Prog: prog, Fset: prog.Fset, Graph: g}
	merged := make(map[string]*VerbDoc)
	for _, s := range g.Specs {
		if s.Test {
			continue
		}
		pass := pp.PackagePass(s.Pkg)
		d := parseSpecDetail(pass, s)
		vd, ok := merged[d.verb]
		if !ok {
			vd = &VerbDoc{Name: d.verb}
			merged[d.verb] = vd
		}
		if vd.Doc == "" {
			vd.Doc = d.doc
		}
		pkg := shortPkg(s.Pkg.Path)
		if !contains(vd.Packages, pkg) {
			vd.Packages = append(vd.Packages, pkg)
		}
		for _, name := range sortedArgNames(d.args) {
			a := d.args[name]
			found := false
			for _, existing := range vd.Args {
				if existing.Name == a.name {
					found = true
					break
				}
			}
			if !found {
				vd.Args = append(vd.Args, ArgDoc{Name: a.name, Kind: a.kind, Required: a.required, Doc: a.doc})
			}
		}
		if d.allowExtra {
			vd.Doc = strings.TrimSpace(vd.Doc)
		}
	}
	var out []VerbDoc
	for _, vd := range merged {
		sort.Slice(vd.Args, func(i, j int) bool {
			if vd.Args[i].Required != vd.Args[j].Required {
				return vd.Args[i].Required
			}
			return vd.Args[i].Name < vd.Args[j].Name
		})
		sort.Strings(vd.Packages)
		out = append(out, *vd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ExtractMetrics builds the telemetry registry from every non-test
// Registry.Counter/Gauge/Histogram call in the program.
func ExtractMetrics(prog *Program) []MetricDoc {
	pp := &ProgPass{Prog: prog, Fset: prog.Fset, Graph: prog.Graph()}
	sites := extractMetricSites(pp, false)
	merged := make(map[string]*MetricDoc)
	for _, s := range sites {
		name := s.name
		family := false
		if name == "" {
			name = s.prefix + "<suffix>"
			family = true
		}
		md, ok := merged[name]
		if !ok {
			md = &MetricDoc{Name: name, Kind: s.kind, Doc: s.doc, Family: family}
			merged[name] = md
		}
		if md.Doc == "" {
			md.Doc = s.doc
		}
		pkg := shortPkg(s.pkgPath)
		if !contains(md.Packages, pkg) {
			md.Packages = append(md.Packages, pkg)
		}
	}
	var out []MetricDoc
	for _, md := range merged {
		sort.Strings(md.Packages)
		out = append(out, *md)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// VerbTableMarkdown renders the verb registry as the markdown table
// embedded in docs/PROTOCOL.md between the generated-table markers.
func VerbTableMarkdown(verbs []VerbDoc) string {
	var b strings.Builder
	b.WriteString("| Verb | Arguments | Declared in | Semantics |\n")
	b.WriteString("|------|-----------|-------------|-----------|\n")
	for _, v := range verbs {
		var args []string
		for _, a := range v.Args {
			s := "`" + a.Name + "`"
			if a.Kind != "" {
				s += ":" + a.Kind
			}
			if a.Required {
				s += "!"
			}
			args = append(args, s)
		}
		argCell := strings.Join(args, ", ")
		if argCell == "" {
			argCell = "—"
		}
		doc := v.Doc
		if doc == "" {
			doc = "—"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n",
			v.Name, argCell, strings.Join(v.Packages, ", "), escapeCell(doc))
	}
	return b.String()
}

// VerbTableMarkers delimit the generated region inside PROTOCOL.md.
const (
	VerbTableBegin = "<!-- BEGIN GENERATED VERB TABLE (acelint -verbs-doc; do not edit by hand) -->"
	VerbTableEnd   = "<!-- END GENERATED VERB TABLE -->"
)

// SpliceVerbTable replaces the region between the verb-table markers
// in doc with the freshly generated table. It errors when the markers
// are missing so a hand-edited document fails loudly instead of being
// silently rewritten.
func SpliceVerbTable(doc string, verbs []VerbDoc) (string, error) {
	begin := strings.Index(doc, VerbTableBegin)
	end := strings.Index(doc, VerbTableEnd)
	if begin < 0 || end < 0 || end < begin {
		return "", fmt.Errorf("verb-table markers not found (need %q … %q)", VerbTableBegin, VerbTableEnd)
	}
	var b strings.Builder
	b.WriteString(doc[:begin])
	b.WriteString(VerbTableBegin)
	b.WriteString("\n")
	b.WriteString(VerbTableMarkdown(verbs))
	b.WriteString(doc[end:])
	return b.String(), nil
}

// MetricsMarkdown renders docs/METRICS.md in full.
func MetricsMarkdown(metrics []MetricDoc) string {
	var b strings.Builder
	b.WriteString("# Telemetry metrics\n\n")
	b.WriteString("Generated by `acelint -metrics-doc` from every `telemetry.Registry`\n")
	b.WriteString("registration in the tree — do not edit by hand; run\n")
	b.WriteString("`make lint-docs` to regenerate. The `metricnames` analyzer\n")
	b.WriteString("(docs/LINT.md) enforces that every name here is a conforming\n")
	b.WriteString("constant registered from exactly one declaration, so this table\n")
	b.WriteString("is the complete metric surface. Entries ending in `<suffix>` are\n")
	b.WriteString("families: a constant prefix extended with a bounded dynamic\n")
	b.WriteString("suffix (for example one histogram per registered verb).\n\n")
	b.WriteString("| Metric | Kind | Registered in | Description |\n")
	b.WriteString("|--------|------|---------------|-------------|\n")
	for _, m := range metrics {
		doc := m.Doc
		if doc == "" {
			doc = "—"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n",
			m.Name, strings.ToLower(m.Kind), strings.Join(m.Packages, ", "), escapeCell(doc))
	}
	return b.String()
}

func shortPkg(path string) string {
	path = strings.TrimSuffix(path, " [test]")
	if i := strings.LastIndex(path, "/internal/"); i >= 0 {
		return path[i+len("/internal/"):]
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func escapeCell(s string) string {
	s = strings.ReplaceAll(s, "|", "\\|")
	return strings.ReplaceAll(s, "\n", " ")
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func sortedArgNames(args map[string]argDetail) []string {
	names := make([]string, 0, len(args))
	for n := range args {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
