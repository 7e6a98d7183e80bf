// Package plan holds the executor-independent EXPLAIN plan tree: a
// deterministic, diff-friendly rendering of the access paths, join
// strategies, and cardinality estimates a compiled query chose, annotated
// with the actual row counts one execution observed. The golden
// plan-snapshot suite diffs these renderings verbatim, so Render is
// deliberately free of anything non-deterministic — no pointers, no map
// iteration, no timing.
package plan

import (
	"fmt"
	"strconv"
	"strings"
)

// Node is one operator in a plan tree.
type Node struct {
	// Kind names the operator: "scan", "probe", "range", "join", "filter",
	// "aggregate", "stream", "project", "compound", "derived".
	Kind string
	// Label identifies the operand — a table name, join key list, or
	// compound operator.
	Label string
	// Detail carries operator-specific choices: the probed literal, range
	// bounds, build strategy, reorder note.
	Detail string
	// EstRows is the planner's output-cardinality estimate; negative means
	// the planner made no estimate (a restricted reference executor, or a
	// non-costed node).
	EstRows float64
	// ActRows is the row count one execution actually produced (accumulated
	// across re-executions for correlated subplans); -1 when the node never
	// executed (e.g. short-circuited subquery).
	ActRows int64
	// ActPairs is, for join nodes, how many candidate row pairs the join
	// visited — the cost the build-side and probe choices are trying to
	// minimize; -1 elsewhere.
	ActPairs int64
	Children []*Node
}

// Tree is a complete rendered-plan root.
type Tree struct {
	Root *Node
}

// Render returns the deterministic textual form of the tree, one operator
// per line, children indented with box-drawing connectors:
//
//	project (est=4 act=4)
//	└─ join A.aid = F.aid [index build] (est=120 act=118 pairs=118)
//	   ├─ probe Aircraft.name = 'Boeing' (est=1 act=1)
//	   └─ scan Flight (est=600 act=600)
func (t *Tree) Render() string {
	var b strings.Builder
	render(&b, t.Root, "", "", "")
	return b.String()
}

func render(b *strings.Builder, n *Node, self, childPrefix, _ string) {
	b.WriteString(self)
	b.WriteString(n.Kind)
	if n.Label != "" {
		b.WriteByte(' ')
		b.WriteString(n.Label)
	}
	if n.Detail != "" {
		b.WriteString(" [")
		b.WriteString(n.Detail)
		b.WriteByte(']')
	}
	b.WriteString(" (")
	b.WriteString("est=")
	b.WriteString(fmtEst(n.EstRows))
	b.WriteString(" act=")
	b.WriteString(fmtAct(n.ActRows))
	if n.ActPairs >= 0 {
		b.WriteString(" pairs=")
		b.WriteString(strconv.FormatInt(n.ActPairs, 10))
	}
	b.WriteString(")\n")
	for i, c := range n.Children {
		conn, cont := "├─ ", "│  "
		if i == len(n.Children)-1 {
			conn, cont = "└─ ", "   "
		}
		render(b, c, childPrefix+conn, childPrefix+cont, "")
	}
}

// fmtEst renders an estimate: "?" for none, integers without a fraction,
// everything else with two decimals (enough to see selectivity fractions,
// stable across platforms).
func fmtEst(est float64) string {
	if est < 0 {
		return "?"
	}
	if est == float64(int64(est)) && est < 1e15 {
		return strconv.FormatInt(int64(est), 10)
	}
	return fmt.Sprintf("%.2f", est)
}

func fmtAct(act int64) string {
	if act < 0 {
		return "?"
	}
	return strconv.FormatInt(act, 10)
}
