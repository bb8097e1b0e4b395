"""Tests for the command-line XQuery runner."""

import pytest

from repro.cli import main


@pytest.fixture
def films_file(tmp_path):
    path = tmp_path / "films.xml"
    path.write_text("""<films>
    <film><name>The Rock</name><actor>Sean Connery</actor></film>
    <film><name>Green Card</name><actor>Gerard Depardieu</actor></film>
    </films>""")
    return path


class TestCLI:
    def test_inline_expression(self, capsys):
        assert main(["-e", "1 + 1"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_query_file(self, tmp_path, capsys):
        query = tmp_path / "q.xq"
        query.write_text("for $i in (1 to 3) return $i * 10")
        assert main([str(query)]) == 0
        assert capsys.readouterr().out.strip() == "10 20 30"

    def test_doc_mount(self, films_file, capsys):
        assert main([
            "-e", "doc('filmDB.xml')//name/text()",
            "--doc", f"filmDB.xml={films_file}",
        ]) == 0
        assert capsys.readouterr().out.strip() == "The RockGreen Card"

    def test_doc_mount_bare_path_uses_filename(self, films_file, capsys):
        assert main([
            "-e", "count(doc('films.xml')//film)",
            "--doc", str(films_file),
        ]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_module_registration(self, tmp_path, films_file, capsys):
        module = tmp_path / "film.xq"
        module.write_text("""
        module namespace film = "films";
        declare function film:byActor($a as xs:string) as node()*
        { doc("filmDB.xml")//name[../actor = $a] };
        """)
        assert main([
            "-e", ('import module namespace f="films" at "film.xq"; '
                   'f:byActor("Sean Connery")'),
            "--module", f"film.xq={module}",
            "--doc", f"filmDB.xml={films_file}",
        ]) == 0
        assert "<name>The Rock</name>" in capsys.readouterr().out

    def test_external_variable(self, capsys):
        assert main(["-e", "declare variable $who external; concat('hi ', $who)",
                     "--var", "who=world"]) == 0
        assert capsys.readouterr().out.strip() == "hi world"

    def test_update_and_save(self, tmp_path, films_file, capsys):
        out_path = tmp_path / "updated.xml"
        assert main([
            "-e", "insert node <film><name>New</name></film> "
                  "into doc('filmDB.xml')/films",
            "--doc", f"filmDB.xml={films_file}",
            "--save", f"filmDB.xml={out_path}",
        ]) == 0
        assert "<name>New</name>" in out_path.read_text()

    def test_error_exit_code(self, capsys):
        assert main(["-e", "1 +"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit):
            main([])
        query = tmp_path / "q.xq"
        query.write_text("1")
        with pytest.raises(SystemExit):
            main([str(query), "-e", "2"])

    def test_indent_output(self, capsys):
        assert main(["-e", "<a><b>1</b></a>", "--indent"]) == 0
        out = capsys.readouterr().out
        assert "  <b>1</b>" in out


class TestExplainAndPlanFlags:
    def test_explain_reports_lifted_plan(self, films_file, capsys):
        assert main([
            "-e", "doc('filmDB.xml')//name",
            "--doc", f"filmDB.xml={films_file}",
            "--explain",
        ]) == 0
        captured = capsys.readouterr()
        assert "plan: lifted" in captured.err
        assert "compile:" in captured.err
        assert "execute:" in captured.err
        assert "<name>The Rock</name>" in captured.out  # result unpolluted

    def test_explain_reports_fallback_reason(self, films_file, capsys):
        assert main([
            "-e", "count(doc('filmDB.xml')//film)",
            "--doc", f"filmDB.xml={films_file}",
            "--explain",
        ]) == 0
        captured = capsys.readouterr()
        assert "plan: interpreter" in captured.err
        assert "fallback: FunctionCall:" in captured.err
        assert captured.out.strip() == "2"

    def test_explain_shows_update_cost_counters(self, films_file, capsys):
        assert main([
            "-e", "insert node <film/> into doc('filmDB.xml')/films",
            "--doc", f"filmDB.xml={films_file}",
            "--explain",
        ]) == 0
        captured = capsys.readouterr()
        assert "updates: reencodes_subtree=1 index_patches=1" in captured.err

    def test_read_only_explain_counts_only_the_index_build(
            self, films_file, capsys):
        assert main([
            "-e", "doc('filmDB.xml')//name",
            "--doc", f"filmDB.xml={films_file}",
            "--explain",
        ]) == 0
        assert capsys.readouterr().err.splitlines()[-1] \
            == "updates: index_builds=1"

    def test_no_lifted_pins_interpreter(self, films_file, capsys):
        assert main([
            "-e", "doc('filmDB.xml')//name",
            "--doc", f"filmDB.xml={films_file}",
            "--explain", "--no-lifted",
        ]) == 0
        captured = capsys.readouterr()
        assert "plan: interpreter" in captured.err
        assert "fallback:" not in captured.err  # disabled, not unsupported
        assert "<name>The Rock</name>" in captured.out

    def test_no_lifted_same_results(self, films_file, capsys):
        args = ["-e", "doc('filmDB.xml')//name/text()",
                "--doc", f"filmDB.xml={films_file}"]
        assert main(args) == 0
        lifted_out = capsys.readouterr().out
        assert main(args + ["--no-lifted"]) == 0
        assert capsys.readouterr().out == lifted_out


class TestCheckSubcommand:
    """`repro check`: lint without executing (routes through main)."""

    def test_clean_query_exits_zero(self, capsys):
        assert main(["check", "-e", "doc('d.xml')//item"]) == 0
        assert capsys.readouterr().out == ""

    def test_analysis_summary_flag(self, capsys):
        assert main(["check", "-e", "doc('d.xml')//item",
                     "--analysis"]) == 0
        out = capsys.readouterr().out
        assert "analysis: liftable=yes, updating=no" in out

    def test_unbound_variable_fails_with_position(self, capsys):
        assert main(["check", "-e", "1 + $missing"]) == 1
        out = capsys.readouterr().out
        assert ("<expression>:1:5: error [XPST0008]: "
                "variable $missing is not declared") in out

    def test_unknown_function_fails(self, capsys):
        assert main(["check", "-e", "no-such-fn(1)"]) == 1
        assert "[XPST0017]" in capsys.readouterr().out

    def test_parse_error_fails_with_position(self, capsys):
        assert main(["check", "-e", "1 +"]) == 1
        out = capsys.readouterr().out
        assert "error" in out and "1:4" in out

    def test_var_flag_binds_external(self, capsys):
        query = "declare variable $n external; $n + 1"
        assert main(["check", "-e", query, "--var", "n",
                     "--analysis"]) == 0
        assert "liftable=yes" in capsys.readouterr().out

    def test_query_files_and_modules(self, tmp_path, capsys):
        module = tmp_path / "film.xq"
        module.write_text("""
        module namespace film = "films";
        declare function film:byActor($a as xs:string) as node()*
        { doc("filmDB.xml")//name[../actor = $a] };
        """)
        good = tmp_path / "good.xq"
        good.write_text(
            'import module namespace f = "films" at "film.xq";\n'
            'execute at {"xrpc://y"} { f:byActor("Sean Connery") }\n')
        bad = tmp_path / "bad.xq"
        bad.write_text(
            'import module namespace f = "films" at "film.xq";\n'
            'f:byActor("A", "too-many")\n')
        assert main(["check", str(good),
                     "--module", f"film.xq={module}"]) == 0
        assert main(["check", str(good), str(bad),
                     "--module", f"film.xq={module}"]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:2:1: error [XPST0017]" in out

    def test_updating_query_summary(self, capsys):
        assert main([
            "check", "-e",
            "insert node <a/> as last into doc('d.xml')/r",
            "--analysis"]) == 0
        assert "updating=yes" in capsys.readouterr().out
