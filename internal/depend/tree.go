package depend

import (
	"fmt"
	"sort"
	"strings"

	"cla/internal/prim"
)

// FormatTree renders the dependence relation as a tree rooted at the
// targets — the textual equivalent of the chain-browsing GUI the paper
// describes ("tools for browsing the tree of chains"). Each object appears
// under the predecessor of its best chain, annotated with the edge
// strength and location. maxDepth <= 0 means unlimited.
func (r *Result) FormatTree(maxDepth int) string {
	children := map[prim.SymID][]prim.SymID{}
	for i := range r.states {
		st := &r.states[i]
		if st.prev == prim.NoSym {
			continue // a target
		}
		children[st.prev] = append(children[st.prev], st.sym)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool {
			a, b := r.lookup(kids[i]), r.lookup(kids[j])
			if a.strength != b.strength {
				return a.strength > b.strength
			}
			return kids[i] < kids[j]
		})
	}

	var b strings.Builder
	var walk func(sym prim.SymID, prefix string, depth int)
	walk = func(sym prim.SymID, prefix string, depth int) {
		kids := children[sym]
		if maxDepth > 0 && depth >= maxDepth {
			if len(kids) > 0 {
				fmt.Fprintf(&b, "%s... (%d more below)\n", prefix, len(kids))
			}
			return
		}
		for i, kid := range kids {
			connector := "├─ "
			childPrefix := prefix + "│  "
			if i == len(kids)-1 {
				connector = "└─ "
				childPrefix = prefix + "   "
			}
			st := r.lookup(kid)
			s := r.src.Sym(kid)
			fmt.Fprintf(&b, "%s%s%s/%s <%s> [%s]\n",
				prefix, connector, s.Name, s.Type, st.loc, st.edgeStr)
			walk(kid, childPrefix, depth+1)
		}
	}
	for _, t := range r.targets {
		s := r.src.Sym(t)
		fmt.Fprintf(&b, "%s/%s <%s>\n", s.Name, s.Type, s.Loc)
		walk(t, "", 0)
	}
	return b.String()
}
