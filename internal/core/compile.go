package core

import (
	"fmt"

	"vxq/internal/algebricks"
	"vxq/internal/hyracks"
	"vxq/internal/jsoniq"
)

// RuleConfig selects which of the paper's rewrite-rule categories are
// applied. The generic Algebricks rules (join-condition extraction, dead
// assign removal) always run — they belong to the substrate (§3.1).
type RuleConfig struct {
	// PathRules enables the path expression rules of §4.1.
	PathRules bool
	// PipeliningRules enables the pipelining rules of §4.2 (DATASCAN
	// introduction and path merging).
	PipeliningRules bool
	// GroupByRules enables the group-by rules of §4.3, including the
	// two-step aggregation scheme at the physical level.
	GroupByRules bool
	// NoJoinExtraction withholds the generic Algebricks join-recognition
	// rule, leaving joins as cross products with a residual select
	// (ablation only).
	NoJoinExtraction bool
	// NoProjectionPushdown keeps DATASCAN introduction but disables
	// merging navigation into the DATASCAN second argument, so each file
	// is fully materialized before navigation — the AsterixDB behaviour
	// the paper compares against (§5.3): "the system waits to first gather
	// all the measurements in the array before it moves them to the next
	// stage of processing".
	NoProjectionPushdown bool
}

// AllRules enables every rule category.
func AllRules() RuleConfig {
	return RuleConfig{PathRules: true, PipeliningRules: true, GroupByRules: true}
}

// Rules assembles the Algebricks rule list for a configuration, in the
// paper's order: path expression rules, then pipelining rules, then
// group-by rules, with the generic rules last (cleanup).
func (cfg RuleConfig) Rules() []algebricks.Rule {
	var rules []algebricks.Rule
	if !cfg.NoJoinExtraction {
		rules = append(rules, algebricks.ExtractJoinCondition{})
	}
	if cfg.PathRules {
		rules = append(rules,
			MergeUnnestWithKeysOrMembers{},
			RemovePromoteData{},
		)
	}
	if cfg.PipeliningRules {
		rules = append(rules, IntroduceDataScan{},
			MergePathIntoDataScan{RecordBoundary: cfg.NoProjectionPushdown},
			PushRangeFilterIntoDataScan{})
	}
	if cfg.GroupByRules {
		rules = append(rules,
			RemoveRedundantTreat{},
			ConvertCountToAggregate{},
			PushAggregateIntoGroupBy{},
		)
	}
	rules = append(rules, algebricks.RemoveUnusedAssign{})
	return rules
}

// Optimize applies the configured rule categories to fixpoint.
func Optimize(p *algebricks.Plan, cfg RuleConfig) error {
	return p.Rewrite(cfg.Rules())
}

// Options configures query compilation.
type Options struct {
	Rules      RuleConfig
	Partitions int
	// SingleStepAggregation disables the two-step (local/global)
	// aggregation scheme even when the group-by rules are on (ablation
	// only).
	SingleStepAggregation bool
}

// Compiled is the result of compiling a query: the plans at each stage and
// the runnable Hyracks job.
type Compiled struct {
	AST           jsoniq.Expr
	OriginalPlan  string
	OptimizedPlan string
	Job           *hyracks.Job
	// Ordered reports whether the query contains an order-by clause, i.e.
	// the result tuple order is meaningful and must be preserved.
	Ordered bool
}

// CompileQuery runs the full pipeline of Fig. 1: parse, translate to the
// logical plan, rewrite with the configured rule categories, and lower to a
// Hyracks job.
func CompileQuery(query string, opts Options) (*Compiled, error) {
	ast, err := jsoniq.Parse(query)
	if err != nil {
		return nil, err
	}
	plan, ordered, err := translateQuery(ast)
	if err != nil {
		return nil, err
	}
	original := plan.String()
	if err := Optimize(plan, opts.Rules); err != nil {
		return nil, fmt.Errorf("core: optimize: %w", err)
	}
	job, err := algebricks.Compile(plan, algebricks.CompileOptions{
		Partitions:         opts.Partitions,
		TwoStepAggregation: opts.Rules.GroupByRules && !opts.SingleStepAggregation,
	})
	if err != nil {
		return nil, fmt.Errorf("core: compile: %w\nplan:\n%s", err, plan)
	}
	return &Compiled{
		AST:           ast,
		OriginalPlan:  original,
		OptimizedPlan: plan.String(),
		Job:           job,
		Ordered:       ordered,
	}, nil
}
