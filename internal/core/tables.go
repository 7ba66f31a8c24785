package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/datasets"
	"repro/internal/report"
)

// Table1 renders the dataset statistics table.
func Table1() string {
	rows := make([][]string, 0, 11)
	for _, s := range datasets.Table1() {
		rows = append(rows, []string{
			s.Name, s.FullName, s.Domain,
			fmt.Sprintf("%d", s.Attrs), fmt.Sprintf("%d", s.Pos), fmt.Sprintf("%d", s.Neg),
		})
	}
	return report.SimpleTable(
		"Table 1: The 11 benchmark datasets, organized by domain with key statistics.",
		[]string{"", "Dataset", "Domain", "#Attr.", "#Pos.", "#Neg."}, rows)
}

// QualityTable assembles a rendered quality table (Table 3 or 4 layout)
// from evaluation results.
func QualityTable(title string, q *QualityResults) *report.QualityTable {
	t := &report.QualityTable{Title: title, Columns: append(DatasetNames(), "Mean")}
	for i, spec := range q.Specs {
		params := "-"
		if spec.ParamsMillions > 0 {
			params = fmt.Sprintf("%.0f", spec.ParamsMillions)
		}
		row := report.QualityRow{Label: spec.Label, Params: params}
		for _, r := range q.Results[i] {
			row.Cells = append(row.Cells, report.Cell{
				Mean:      r.Mean(),
				Std:       r.Std(),
				Bracketed: spec.Bracketed(r.Target),
			})
		}
		mean, std := q.MacroMean(i)
		row.Cells = append(row.Cells, report.Cell{Mean: mean, Std: std})
		t.Rows = append(t.Rows, row)
	}
	t.MarkBest()
	return t
}

// Table5 renders the throughput table.
func Table5() string {
	rows := make([][]string, 0, len(cost.Catalog))
	for _, r := range cost.Table5() {
		rows = append(rows, []string{
			r.Model.Name,
			cost.UsedBy(r.Model.Name),
			fmt.Sprintf("%.0f", r.Model.ParamsMillions),
			fmt.Sprintf("%.2f", r.Model.RAMGB),
			fmt.Sprintf("%d", r.BatchSize),
			fmt.Sprintf("%.0f", r.TokensPerSec),
		})
	}
	return report.SimpleTable(
		"Table 5: Simulated throughput in tokens/s with 4xA100 (40GB) GPUs for open-weight models.",
		[]string{"Model", "Used by", "#params(M)", "RAM(GB)", "batch size", "Throughput(tokens/s)"}, rows)
}

// Table6 renders the cost table.
func Table6() (string, error) {
	results, err := cost.Table6()
	if err != nil {
		return "", err
	}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{r.Method, fmt.Sprintf("$%.7f", r.CostPer1K), r.Deployment})
	}
	return report.SimpleTable(
		"Table 6: Cost per 1K tokens for EM with proprietary models vs open-weight deployments.",
		[]string{"Method & model", "Cost for 1K tokens", "Deployment scenario"}, rows), nil
}

// Figure3 renders the deployment-cost versus prediction-quality scatter.
// Jellyfish is excluded, as in the paper (its mean quality cannot be
// computed fairly under the cross-dataset setting).
func Figure3(q *QualityResults) (string, error) {
	var points []report.ScatterPoint
	for i, spec := range q.Specs {
		if spec.Label == "Jellyfish" || spec.Label == "StringSim" || spec.Label == "ZeroER" {
			continue
		}
		model := modelNameForSpec(spec.Label)
		if model == "" {
			continue
		}
		c, err := cost.CostFor(model, cost.FourA100)
		if err != nil {
			return "", err
		}
		mean, _ := q.MacroMean(i)
		points = append(points, report.ScatterPoint{X: c.CostPer1K, Y: mean, Label: spec.Label})
	}
	report.SortPointsByX(points)
	return report.Scatter("Figure 3: Deployment cost versus prediction quality.",
		"cost per 1K tokens ($)", "mean F1", points, true), nil
}

// Figure4 renders the model-size versus prediction-quality scatter.
func Figure4(q *QualityResults) string {
	var points []report.ScatterPoint
	for i, spec := range q.Specs {
		if spec.ParamsMillions <= 0 || spec.Label == "Jellyfish" {
			continue
		}
		mean, _ := q.MacroMean(i)
		points = append(points, report.ScatterPoint{X: spec.ParamsMillions, Y: mean, Label: spec.Label})
	}
	report.SortPointsByX(points)
	return report.Scatter("Figure 4: Model size versus prediction quality.",
		"model size (millions of parameters)", "mean F1", points, true)
}

// modelNameForSpec extracts the cost-model name for a Table 3 row label.
func modelNameForSpec(label string) string {
	switch label {
	case "Ditto":
		return "BERT"
	case "Unicorn":
		return "DeBERTa"
	case "AnyMatch [GPT-2]":
		return "GPT-2"
	case "AnyMatch [T5]":
		return "T5"
	case "AnyMatch [LLaMA3.2]":
		return "LLaMA3.2"
	case "MatchGPT [Mixtral-8x7B]":
		return "Mixtral-8x7B"
	case "MatchGPT [SOLAR]":
		return "SOLAR"
	case "MatchGPT [Beluga2]":
		return "Beluga2"
	case "MatchGPT [GPT-4o-Mini]":
		return "GPT-4o-Mini"
	case "MatchGPT [GPT-3.5-Turbo]":
		return "GPT-3.5-Turbo"
	case "MatchGPT [GPT-4]":
		return "GPT-4"
	default:
		return ""
	}
}
