// Package graphio reads and writes graphs in a GFF-style text format
// compatible in spirit with the files shipped with the RI tool chain
// (Bonnici et al. 2013), which the paper's data collections use.
//
// The format, one graph per section, any number of sections per file:
//
//	#graph-name
//	%undirected        (optional directive, see below)
//	<number of nodes>
//	<label of node 0>
//	<label of node 1>
//	...
//	<number of edges>
//	<from> <to> [edge-label]
//	...
//
// Node and edge labels are arbitrary whitespace-free strings; they are
// interned into dense graph.Label ids through a LabelTable so that the
// engines can compare labels as integers. Sharing one LabelTable between
// a pattern and its target guarantees that equal strings map to equal ids
// (label equivalence, Kimmig et al. §2.1).
//
// Directive lines starting with '%' may appear between the header and
// the node count. "%directed" (the default) reads each edge line as one
// arc; "%undirected" reads each line as an undirected edge and adds both
// arcs (one arc for a self-loop), halving the on-disk size of symmetric
// datasets — the common case for the paper's collections. Write always
// emits the directed form; WriteUndirected emits "%undirected" sections
// for symmetric graphs.
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"parsge/internal/graph"
)

// LabelTable interns label strings into dense graph.Label ids. The zero
// value is not ready; use NewLabelTable. Id 0 is reserved for the empty
// label (graph.NoLabel) so unlabeled files round-trip naturally.
type LabelTable struct {
	ids   map[string]graph.Label
	names []string
}

// NewLabelTable returns an empty table with the empty string pre-interned
// as graph.NoLabel.
func NewLabelTable() *LabelTable {
	t := &LabelTable{ids: make(map[string]graph.Label)}
	t.ids[""] = graph.NoLabel
	t.names = append(t.names, "")
	return t
}

// Intern returns the id for name, assigning a fresh one if necessary.
// The strings "" and "_" both denote the empty label graph.NoLabel; "_"
// is its on-disk spelling (a blank line would be skipped by the parser).
func (t *LabelTable) Intern(name string) graph.Label {
	if name == "_" {
		return graph.NoLabel
	}
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := graph.Label(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// Name returns the string for a previously interned id, or "?" if the id
// is unknown.
func (t *LabelTable) Name(id graph.Label) string {
	if int(id) < 0 || int(id) >= len(t.names) {
		return "?"
	}
	return t.names[id]
}

// Size returns the number of interned labels, including the empty label.
func (t *LabelTable) Size() int { return len(t.names) }

// Spell returns the string for id like Name, but falls back to the
// decimal spelling for ids the table never interned — the case for
// graphs built programmatically with numeric labels (e.g. the synthetic
// datasets). Reading the spelled label back through Intern yields ids
// that are consistent across all graphs sharing the table, which is all
// the engines require.
func (t *LabelTable) Spell(id graph.Label) string {
	if int(id) >= 0 && int(id) < len(t.names) {
		return t.names[id]
	}
	return strconv.Itoa(int(id))
}

// NamedGraph pairs a graph with the name found in its file section.
type NamedGraph struct {
	Name  string
	Graph *graph.Graph
}

// Reader parses graph sections from an input stream.
type Reader struct {
	s      *bufio.Scanner
	labels *LabelTable
	line   int
}

// maxLine caps the length of one input line (a label or an edge line).
const maxLine = 1 << 24

// NewReader returns a Reader that interns labels into table. If table is
// nil a private table is created.
//
// The scan buffer starts at 64 KB for streams of unknown length, such as
// files, and at the text's own length for in-memory readers that report
// one (strings.Reader, bytes.Reader, bytes.Buffer), so parsing a short
// pattern allocates in proportion to its text. Either way it grows on
// demand up to maxLine.
func NewReader(r io.Reader, table *LabelTable) *Reader {
	if table == nil {
		table = NewLabelTable()
	}
	size := 1 << 16
	if l, ok := r.(interface{ Len() int }); ok {
		size = min(l.Len()+1, size)
	}
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, size), maxLine)
	return &Reader{s: s, labels: table}
}

// Labels returns the label table the reader interns into.
func (r *Reader) Labels() *LabelTable { return r.labels }

// errf decorates a parse error with the current line number.
func (r *Reader) errf(format string, args ...any) error {
	return fmt.Errorf("graphio: line %d: %s", r.line, fmt.Sprintf(format, args...))
}

// nextLine returns the next non-blank line, or io.EOF.
func (r *Reader) nextLine() (string, error) {
	for r.s.Scan() {
		r.line++
		line := strings.TrimSpace(r.s.Text())
		if line != "" {
			return line, nil
		}
	}
	if err := r.s.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// Read parses the next graph section. It returns io.EOF when the stream
// is exhausted.
func (r *Reader) Read() (NamedGraph, error) {
	header, err := r.nextLine()
	if err != nil {
		return NamedGraph{}, err
	}
	if !strings.HasPrefix(header, "#") {
		return NamedGraph{}, r.errf("expected '#name' header, got %q", header)
	}
	name := strings.TrimSpace(header[1:])

	nLine, err := r.nextLine()
	if err != nil {
		return NamedGraph{}, r.errf("missing node count: %v", err)
	}
	undirected := false
	for strings.HasPrefix(nLine, "%") {
		switch strings.TrimSpace(nLine[1:]) {
		case "undirected":
			undirected = true
		case "directed":
			undirected = false
		default:
			return NamedGraph{}, r.errf("unknown directive %q", nLine)
		}
		if nLine, err = r.nextLine(); err != nil {
			return NamedGraph{}, r.errf("missing node count: %v", err)
		}
	}
	n, err := strconv.Atoi(nLine)
	if err != nil || n < 0 {
		return NamedGraph{}, r.errf("bad node count %q", nLine)
	}

	// The node count is untrusted input: nodes are appended as their
	// label lines arrive, so a text declaring a billion nodes fails at
	// its first missing label instead of sizing an allocation.
	var b graph.Builder
	for i := 0; i < n; i++ {
		lab, err := r.nextLine()
		if err != nil {
			return NamedGraph{}, r.errf("missing label for node %d: %v", i, err)
		}
		b.AddNode(r.labels.Intern(lab))
	}

	mLine, err := r.nextLine()
	if err != nil {
		return NamedGraph{}, r.errf("missing edge count: %v", err)
	}
	m, err := strconv.Atoi(mLine)
	if err != nil || m < 0 {
		return NamedGraph{}, r.errf("bad edge count %q", mLine)
	}

	for i := 0; i < m; i++ {
		line, err := r.nextLine()
		if err != nil {
			return NamedGraph{}, r.errf("missing edge %d: %v", i, err)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return NamedGraph{}, r.errf("bad edge line %q", line)
		}
		// Node ids are int32: a wider endpoint is an error, not a
		// wrapped id naming some other node.
		u, err1 := strconv.ParseInt(fields[0], 10, 32)
		v, err2 := strconv.ParseInt(fields[1], 10, 32)
		if err1 != nil || err2 != nil {
			return NamedGraph{}, r.errf("bad edge endpoints %q", line)
		}
		lab := graph.NoLabel
		if len(fields) == 3 {
			lab = r.labels.Intern(fields[2])
		}
		if undirected && u != v {
			b.AddEdgeBoth(int32(u), int32(v), lab)
		} else {
			b.AddEdge(int32(u), int32(v), lab)
		}
	}

	g, err := b.Build()
	if err != nil {
		return NamedGraph{}, r.errf("%v", err)
	}
	return NamedGraph{Name: name, Graph: g}, nil
}

// ReadAll parses every section until EOF.
func (r *Reader) ReadAll() ([]NamedGraph, error) {
	var out []NamedGraph
	for {
		ng, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ng)
	}
}

// WriteUndirected serializes g as one "%undirected" section: every
// symmetric arc pair is written once, self-loop arcs once each. It
// errors when g is not symmetric — some arc (u,v,l) lacks a matching
// reverse arc (v,u,l) — since the undirected form could not round-trip
// such a graph. Reading the section back yields a graph equal to g up
// to edge order.
func WriteUndirected(w io.Writer, name string, g *graph.Graph, table *LabelTable) error {
	unpaired := make(map[graph.Edge]int)
	var lines []graph.Edge
	for _, e := range g.Edges() {
		if e.From == e.To {
			lines = append(lines, e)
			continue
		}
		rev := graph.Edge{From: e.To, To: e.From, Label: e.Label}
		if unpaired[rev] > 0 {
			unpaired[rev]--
			if e.From > e.To {
				e = rev
			}
			lines = append(lines, e)
			continue
		}
		unpaired[e]++
	}
	for e, n := range unpaired {
		if n > 0 {
			return fmt.Errorf("graphio: graph is not symmetric: arc (%d,%d) has no reverse", e.From, e.To)
		}
	}
	return writeSection(w, name, "undirected", g, lines, table)
}

// Write serializes g as one section. Labels are resolved through table;
// passing the table used while building g round-trips label strings.
func Write(w io.Writer, name string, g *graph.Graph, table *LabelTable) error {
	return writeSection(w, name, "", g, g.Edges(), table)
}

// writeSection emits one text section — header, optional directive,
// node-label block, and the given edge lines — the serialization shared
// by Write and WriteUndirected so the two cannot drift apart.
func writeSection(w io.Writer, name, directive string, g *graph.Graph, edges []graph.Edge, table *LabelTable) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#%s\n", name)
	if directive != "" {
		fmt.Fprintf(bw, "%%%s\n", directive)
	}
	fmt.Fprintf(bw, "%d\n", g.NumNodes())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		lab := table.Spell(g.NodeLabel(v))
		if lab == "" {
			lab = "_" // keep the section parsable: blank lines are skipped
		}
		fmt.Fprintln(bw, lab)
	}
	fmt.Fprintf(bw, "%d\n", len(edges))
	for _, e := range edges {
		if e.Label == graph.NoLabel {
			fmt.Fprintf(bw, "%d %d\n", e.From, e.To)
		} else {
			fmt.Fprintf(bw, "%d %d %s\n", e.From, e.To, table.Spell(e.Label))
		}
	}
	return bw.Flush()
}
