package exp

import (
	"cisim/internal/ideal"
	"cisim/internal/plot"
	"cisim/internal/stats"
)

func init() {
	register(&Experiment{
		ID:    "table1",
		Title: "Table 1: benchmark information",
		Paper: "gcc 8.3%, go 16.7%, compress 9.1%, ijpeg 6.8%, vortex 1.4% misprediction rates; 100-166M instructions",
		tables: func(o Options) []*stats.Table {
			t := stats.NewTable("Table 1: benchmark information",
				"benchmark", "stands for", "instructions", "cond branches", "indirect", "mispredict rate")
			t.Note = "misprediction rate counts conditional branches and indirect jumps (gshare 2^16 + correlated target buffer, perfect RAS)"
			return []*stats.Table{t}
		},
		workload: wlTable1,
	})
	register(&Experiment{
		ID:    "fig3",
		Title: "Figure 3: performance of the six control independence models",
		Paper: "oracle scales with window; base saturates at 128-256; WR-FD closes about half the oracle-base gap; WR hurts about 2x more than FD except compress, where FD dominates",
		tables: func(o Options) []*stats.Table {
			cols := []string{"benchmark", "window"}
			for _, m := range ideal.Models() {
				cols = append(cols, m.String())
			}
			t := stats.NewTable("Figure 3: IPC of the six idealized models vs window size", cols...)
			t.Note = "16-wide, perfect caches, oracle disambiguation, unlimited renaming (paper section 2.2)"
			return []*stats.Table{t}
		},
		workload: wlFig3,
	})
}

func wlTable1(c *wctx) error {
	tr, err := c.trace()
	if err != nil {
		return err
	}
	c.row(0, c.w.Name, c.w.Paper, len(tr.Entries), int(tr.Stats.Cond), int(tr.Stats.Indirect),
		stats.Percent(100*tr.Stats.MispRate()))
	return nil
}

// fig3Windows returns the window sweep for the current scale.
func fig3Windows(o Options) []int {
	if o.Quick {
		return []int{32, 128, 512}
	}
	return []int{16, 32, 64, 128, 256, 512}
}

func wlFig3(c *wctx) error {
	models := ideal.Models()
	wins := fig3Windows(c.o)
	var cfgs []ideal.Config
	for _, win := range wins {
		for _, m := range models {
			cfgs = append(cfgs, ideal.Config{Model: m, WindowSize: win})
		}
	}
	rs, err := c.ideal(cfgs)
	if err != nil {
		return err
	}
	curves := make([]plot.Series, len(models))
	for mi, m := range models {
		curves[mi].Name = m.String()
	}
	for wi, win := range wins {
		row := Row{c.w.Name, win}
		for mi, r := range rs[wi*len(models) : (wi+1)*len(models)] {
			row = append(row, fmtF(r.IPC))
			curves[mi].Points = append(curves[mi].Points, plot.Point{X: float64(win), Y: r.IPC})
		}
		c.row(0, row...)
	}
	c.plot(Plot{
		Title:  "Figure 3 (" + c.w.Name + "): IPC vs window size",
		Series: curves,
	})
	return nil
}
