package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// watchedEnums are the cross-package enum types whose switches must be
// exhaustive everywhere in this module. Each entry earned its place by
// an actual bug class: a semantics switch that silently treated a new
// Semantics value as subgraph-iso (PR 2), a schedule switch that
// dropped ScheduleAuto on the floor (PR 4).
var watchedEnums = map[[2]string]bool{
	{"parsge/internal/graph", "Semantics"}: true,
	{"parsge/internal/domain", "Schedule"}: true,
}

// SemExhaustive enforces exhaustive switches over the designated enum
// types (graph.Semantics, domain.Schedule — plus any same-package type
// marked //sgelint:exhaustive): every constant of the tag's type
// declared in the type's package must appear among the case
// expressions, or the switch must carry a non-empty default clause (one
// that returns an error, panics — anything but silently falling
// through). An empty default is not an escape hatch: it is
// exactly the "new enum value handled as zero work" failure this
// analyzer exists to prevent.
var SemExhaustive = &Analyzer{
	Name: "semexhaustive",
	Doc:  "switches over designated enum types must cover every declared constant or have a non-empty default",
	Run:  runSemExhaustive,
}

func runSemExhaustive(pass *Pass) error {
	info := pass.TypesInfo
	marked := markedTypes(pass, "exhaustive")
	markedSet := make(map[*types.TypeName]bool, len(marked))
	for tn := range marked {
		markedSet[tn] = true
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := info.Types[sw.Tag]
			if !ok {
				return true
			}
			named, ok := types.Unalias(tv.Type).(*types.Named)
			if !ok {
				return true
			}
			tn := named.Obj()
			if tn.Pkg() == nil {
				return true
			}
			if !watchedEnums[[2]string{tn.Pkg().Path(), tn.Name()}] && !markedSet[tn] {
				return true
			}

			consts := enumConstants(named)
			if len(consts) == 0 {
				return true
			}
			covered := make(map[string]bool)
			hasDefault, defaultEmpty := false, false
			for _, s := range sw.Body.List {
				cc, ok := s.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
					defaultEmpty = len(cc.Body) == 0
					continue
				}
				for _, e := range cc.List {
					if etv, ok := info.Types[e]; ok && etv.Value != nil {
						covered[etv.Value.ExactString()] = true
					}
				}
			}
			if hasDefault && !defaultEmpty {
				return true
			}
			var missing []string
			for _, c := range consts {
				if !covered[c.Val().ExactString()] {
					missing = append(missing, c.Name())
				}
			}
			if len(missing) == 0 {
				return true
			}
			sort.Strings(missing)
			what := "add them or a non-empty default"
			if hasDefault {
				what = "the empty default silently ignores them; make it return or panic"
			}
			pass.Reportf(sw.Switch, "switch over %s.%s is not exhaustive: missing %s (%s)",
				tn.Pkg().Name(), tn.Name(), strings.Join(missing, ", "), what)
			return true
		})
	}
	return nil
}

// enumConstants lists the constants of exactly the type named, declared
// in the type's own package. For an imported package the export data
// carries only exported constants — which is the visible enum surface a
// cross-package switch can name anyway.
func enumConstants(named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if types.Identical(types.Unalias(c.Type()), named) {
			out = append(out, c)
		}
	}
	return out
}
